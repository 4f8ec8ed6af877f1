// Observability layer: histogram bucketing and percentile interpolation,
// counter atomicity under thread fuzz, the filter-funnel invariants on a
// golden filtration run, Prometheus exposition shape, and trace_event
// JSON well-formedness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "filters/gatekeeper.hpp"
#include "filters/pair_block.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace gkgpu::obs {
namespace {

TEST(Histogram, BucketBoundsAre125PerDecade) {
  const double* bounds = detail::BucketBounds();
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 2e-6);
  EXPECT_DOUBLE_EQ(bounds[2], 5e-6);
  EXPECT_DOUBLE_EQ(bounds[detail::kBucketCount - 1], 100.0);
  for (int i = 1; i < detail::kBucketCount; ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Histogram, BucketIndexLandsOnLeBoundary) {
  // Prometheus `le` semantics: a value equal to a bound lands in that
  // bucket; anything past the last finite bound (and NaN) goes to +Inf.
  EXPECT_EQ(detail::BucketIndex(0.0), 0);
  EXPECT_EQ(detail::BucketIndex(1e-6), 0);
  EXPECT_EQ(detail::BucketIndex(1.0000001e-6), 1);
  EXPECT_EQ(detail::BucketIndex(100.0), detail::kBucketCount - 1);
  EXPECT_EQ(detail::BucketIndex(100.1), detail::kBucketCount);
  EXPECT_EQ(detail::BucketIndex(0.0 / 0.0), detail::kBucketCount);
}

TEST(Histogram, SnapshotCountsAndMean) {
  Registry reg;
  const Histogram h = reg.histogram("t_seconds", "help");
  h.Observe(0.003);
  h.Observe(0.003);
  h.Observe(0.04);
  const MetricsSnapshot snap = reg.Snapshot();
  const FamilySnapshot* fam = snap.Find("t_seconds");
  ASSERT_NE(fam, nullptr);
  ASSERT_EQ(fam->samples.size(), 1u);
  ASSERT_TRUE(fam->samples[0].histogram.has_value());
  const HistogramSnapshot& hs = *fam->samples[0].histogram;
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.003 + 0.003 + 0.04);
  EXPECT_DOUBLE_EQ(hs.mean(), hs.sum / 3.0);
  std::uint64_t total = 0;
  for (const std::uint64_t b : hs.buckets) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(Histogram, QuantileInterpolatesWithinLandingBucket) {
  Registry reg;
  const Histogram h = reg.histogram("q_seconds", "help");
  // All mass in the (0.002, 0.005] bucket: every quantile must land
  // inside it, linearly spaced by rank.
  for (int i = 0; i < 100; ++i) h.Observe(0.003);
  const HistogramSnapshot hs =
      *reg.Snapshot().Find("q_seconds")->samples[0].histogram;
  const double p50 = hs.Quantile(0.50);
  const double p99 = hs.Quantile(0.99);
  EXPECT_GT(p50, 0.002);
  EXPECT_LE(p50, 0.005);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 0.005);
  // Linear interpolation: p50 is halfway through the bucket.
  EXPECT_NEAR(p50, 0.002 + (0.005 - 0.002) * 0.5, 1e-12);
}

TEST(Histogram, QuantileSpansBucketsAndClampsAtInf) {
  Registry reg;
  const Histogram h = reg.histogram("q2_seconds", "help");
  for (int i = 0; i < 90; ++i) h.Observe(0.0015);  // (0.001, 0.002]
  for (int i = 0; i < 10; ++i) h.Observe(1000.0);  // +Inf bucket
  const HistogramSnapshot hs =
      *reg.Snapshot().Find("q2_seconds")->samples[0].histogram;
  const double p50 = hs.Quantile(0.50);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.002);
  // The p99 rank falls in +Inf: clamp to the last finite bound.
  EXPECT_DOUBLE_EQ(hs.Quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(hs.Quantile(0.0), 0.001 + 1e-3 * 0.0);  // lower edge
}

TEST(Counter, ConcurrencyFuzzExactTotal) {
  Registry reg;
  const Counter c = reg.counter("fuzz_total", "help");
  const Histogram h = reg.histogram("fuzz_seconds", "help");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        c.Inc();
        h.Observe(1e-5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  const HistogramSnapshot hs =
      *reg.Snapshot().Find("fuzz_seconds")->samples[0].histogram;
  EXPECT_EQ(hs.count, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Counter, SameNameAndLabelsSharesOneCell) {
  Registry reg;
  const Counter a = reg.counter("shared_total", "help", {{"k", "v"}});
  const Counter b = reg.counter("shared_total", "help", {{"k", "v"}});
  const Counter other = reg.counter("shared_total", "help", {{"k", "w"}});
  a.Inc(3);
  b.Inc(4);
  other.Inc(10);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(reg.Snapshot().Value("shared_total", {{"k", "v"}}), 7.0);
  EXPECT_EQ(reg.Snapshot().Total("shared_total"), 17.0);
}

TEST(Gauge, SetAndAdd) {
  Registry reg;
  const Gauge g = reg.gauge("depth", "help");
  g.Set(5);
  g.Add(-2);
  EXPECT_EQ(g.value(), 3);
  reg.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Registry, DisabledInstrumentationIsANoOp) {
  Registry reg;
  const Counter c = reg.counter("gated_total", "help");
  SetEnabled(false);
  c.Inc(100);
  SetEnabled(true);
  c.Inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Prometheus, ExpositionShape) {
  Registry reg;
  reg.counter("a_total", "counts a", {{"k", "v\"x\\y\ncr"}}).Inc(2);
  reg.histogram("b_seconds", "times b").Observe(0.5);
  const std::string text = reg.Snapshot().RenderPrometheus();
  EXPECT_NE(text.find("# HELP a_total counts a\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_total counter\n"), std::string::npos);
  // Label values escape backslash, quote, and newline.
  EXPECT_NE(text.find("a_total{k=\"v\\\"x\\\\y\\ncr\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE b_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("b_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("b_seconds_count 1"), std::string::npos);
  // Cumulative buckets: the 0.5 bound and +Inf both count the sample.
  EXPECT_NE(text.find("b_seconds_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("b_seconds_bucket{le=\"0.2\"} 0"), std::string::npos);
}

/// Minimal structural JSON check: quote-aware brace/bracket balance.
bool JsonBalanced(const std::string& s) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

TEST(Prometheus, JsonRenderingIsBalanced) {
  Registry reg;
  reg.counter("j_total", "help \"quoted\"", {{"k", "v"}}).Inc(1);
  reg.histogram("j_seconds", "help").Observe(0.01);
  const std::string json = reg.Snapshot().RenderJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"j_total\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Funnel, GoldenRunInvariants) {
  // One batch through the host filtration choke point; the registry's
  // funnel deltas must tie out exactly against the block.
  const auto value = [](const char* name) {
    return Registry::Global().Snapshot().Total(name);
  };
  const double input0 = value("gkgpu_filter_input_total");
  const double accepts0 = value("gkgpu_filter_accepts_total");
  const double rejects0 = value("gkgpu_filter_rejects_total");
  const double bypasses0 = value("gkgpu_filter_bypasses_total");

  constexpr int kLength = 64;
  PairBlockStorage block(kLength);
  const std::string base(kLength, 'A');
  std::string heavy(kLength, 'A');
  for (int i = 0; i < kLength; i += 2) heavy[i] = 'C';
  std::string undefined(kLength, 'A');
  undefined[3] = 'N';
  for (int i = 0; i < 40; ++i) {
    block.Add(base, base);          // trivially accepted
    block.Add(base, heavy);         // rejected at e = 2
    block.Add(undefined, base);     // bypassed (counts as accepted)
  }
  std::vector<PairResult> results(block.view().size);
  const GateKeeperFilter filter;
  filter.FilterBatch(block.view(), 2, results.data());

  const double input = value("gkgpu_filter_input_total") - input0;
  const double accepts = value("gkgpu_filter_accepts_total") - accepts0;
  const double rejects = value("gkgpu_filter_rejects_total") - rejects0;
  const double bypasses = value("gkgpu_filter_bypasses_total") - bypasses0;
  EXPECT_EQ(input, 120.0);
  // Every filtered pair is accepted or rejected, nothing double-counted.
  EXPECT_EQ(accepts + rejects, input);
  // Bypasses are a subset of accepts; this run has exactly the 'N' pairs.
  EXPECT_EQ(bypasses, 40.0);
  EXPECT_LE(bypasses, accepts);
  EXPECT_GE(accepts, 80.0);  // base+base and the bypasses at minimum
  EXPECT_GE(rejects, 0.0);
}

TEST(Trace, EmitsWellFormedTraceEventJson) {
  StartTracing();
  RegisterTraceThreadName("test-main");
  {
    Span outer("outer", "test");
    Span inner("inner", "test");
  }
  std::thread t([] {
    RegisterTraceThreadName("test-worker");
    Span s("worker-span", "test");
  });
  t.join();
  const std::string json = StopTracing();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-span\""), std::string::npos);
  // Thread-name metadata events for both registered threads.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"test-worker\""), std::string::npos);
  // Complete events carry timestamps and durations in microseconds.
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(Trace, StopAndRestartRaceWithClosingSpans) {
  // Spans close on several threads while another thread keeps swapping
  // the collector out; each retired collector is freed once no closer can
  // still hold it (ASan and TSan watch this test).
  std::atomic<bool> stop{false};
  std::vector<std::thread> closers;
  for (int t = 0; t < 4; ++t) {
    closers.emplace_back([&] {
      while (!stop.load()) {
        Span s("racing-span", "test");
        s.Close();
        RegisterTraceThreadName("test-closer");
      }
    });
  }
  std::thread swapper([] {
    for (int i = 0; i < 200; ++i) {
      StartTracing();
      if (i % 2 == 0) StartTracing();  // restarting retires the live one
      std::this_thread::yield();
      EXPECT_TRUE(JsonBalanced(StopTracing()));
    }
  });
  swapper.join();
  stop.store(true);
  for (std::thread& t : closers) t.join();
  EXPECT_FALSE(TracingActive());
}

TEST(Trace, SpansAreFreeWhenInactive) {
  ASSERT_FALSE(TracingActive());
  Span s("ignored", "test");
  s.Close();
  // Stopping with no active collector yields an empty trace document.
  const std::string json = StopTracing();
  EXPECT_EQ(json, "{\"traceEvents\":[]}\n");
}

}  // namespace
}  // namespace gkgpu::obs
