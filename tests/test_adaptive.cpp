// Unit tests for the occupancy-driven AdaptiveBatcher: deterministic
// grow/shrink decisions, clamping to the configured bounds, shrink
// precedence, and never emitting an empty batch — plus an integration run
// asserting that adaptive sizing leaves the pipeline's results bit-exact.
#include "pipeline/adaptive.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "candidate_workload.hpp"
#include "core/engine.hpp"

namespace gkgpu {
namespace {

using pipeline::AdaptiveBatcher;
using pipeline::AdaptiveBatcherConfig;

AdaptiveBatcherConfig SmallConfig() {
  AdaptiveBatcherConfig cfg;
  cfg.min_size = 100;
  cfg.max_size = 1600;
  cfg.initial = 400;
  cfg.grow_factor = 2.0;
  cfg.shrink_factor = 0.5;
  cfg.starve_watermark = 0.25;
  cfg.backpressure_watermark = 0.75;
  return cfg;
}

TEST(AdaptiveBatcherTest, GrowsWhenFilterFeedStarves) {
  AdaptiveBatcher b(SmallConfig());
  EXPECT_EQ(b.current(), 400u);
  EXPECT_EQ(b.Next(/*feed_fill=*/0.0, /*sink_fill=*/0.0), 800u);
  EXPECT_EQ(b.Next(0.1, 0.0), 1600u);
  EXPECT_EQ(b.grows(), 2u);
  EXPECT_EQ(b.shrinks(), 0u);
}

TEST(AdaptiveBatcherTest, ShrinksWhenSinkBacksUp) {
  AdaptiveBatcher b(SmallConfig());
  EXPECT_EQ(b.Next(/*feed_fill=*/1.0, /*sink_fill=*/1.0), 200u);
  EXPECT_EQ(b.Next(1.0, 0.9), 100u);
  EXPECT_EQ(b.shrinks(), 2u);
  EXPECT_EQ(b.grows(), 0u);
}

TEST(AdaptiveBatcherTest, SteadyStateHoldsSize) {
  AdaptiveBatcher b(SmallConfig());
  // Mid-band occupancancies: neither starved nor backed up.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b.Next(0.5, 0.5), 400u);
  }
  EXPECT_EQ(b.grows(), 0u);
  EXPECT_EQ(b.shrinks(), 0u);
}

TEST(AdaptiveBatcherTest, ShrinkTakesPrecedenceOverGrow) {
  // Starved feed AND backed-up sink: producing bigger batches into a full
  // sink would only grow the reorder window, so shrink wins.
  AdaptiveBatcher b(SmallConfig());
  EXPECT_EQ(b.Next(/*feed_fill=*/0.0, /*sink_fill=*/1.0), 200u);
  EXPECT_EQ(b.shrinks(), 1u);
  EXPECT_EQ(b.grows(), 0u);
}

TEST(AdaptiveBatcherTest, ClampsToConfiguredBounds) {
  AdaptiveBatcher b(SmallConfig());
  for (int i = 0; i < 20; ++i) b.Next(0.0, 0.0);
  EXPECT_EQ(b.current(), 1600u);  // saturates at max
  for (int i = 0; i < 20; ++i) b.Next(1.0, 1.0);
  EXPECT_EQ(b.current(), 100u);  // saturates at min
  EXPECT_EQ(b.min_seen(), 100u);
  EXPECT_EQ(b.max_seen(), 1600u);
}

TEST(AdaptiveBatcherTest, NeverReturnsZero) {
  AdaptiveBatcherConfig cfg;
  cfg.min_size = 0;  // hostile configuration
  cfg.max_size = 0;
  cfg.initial = 0;
  cfg.shrink_factor = 0.0;
  AdaptiveBatcher b(cfg);
  EXPECT_GE(b.current(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(b.Next(1.0, 1.0), 1u);
  }
}

TEST(AdaptiveBatcherTest, GrowthIsMonotonicEvenNearOne) {
  // A grow factor that rounds to the same integer must still make
  // progress toward max_size.
  AdaptiveBatcherConfig cfg;
  cfg.min_size = 1;
  cfg.max_size = 8;
  cfg.initial = 1;
  cfg.grow_factor = 1.01;
  AdaptiveBatcher b(cfg);
  std::size_t prev = b.current();
  while (b.current() < cfg.max_size) {
    const std::size_t next = b.Next(0.0, 0.0);
    ASSERT_GT(next, prev);
    prev = next;
  }
}

TEST(AdaptiveBatcherTest, InitialDefaultsToMaxAndIsClamped) {
  AdaptiveBatcherConfig cfg;
  cfg.min_size = 10;
  cfg.max_size = 100;
  cfg.initial = 0;
  EXPECT_EQ(AdaptiveBatcher(cfg).current(), 100u);
  cfg.initial = 7;  // below min
  EXPECT_EQ(AdaptiveBatcher(cfg).current(), 10u);
  cfg.initial = 700;  // above max
  EXPECT_EQ(AdaptiveBatcher(cfg).current(), 100u);
}

// ------------------------------------------------------ pipeline wiring --

TEST(AdaptivePipelineTest, AdaptiveRunIsBitExactWithFixedRun) {
  const CandidateWorkload w = MakeCandidateWorkload(1500, 71);
  auto devices = gpusim::MakeSetup1(2, 2);
  std::vector<gpusim::Device*> ptrs;
  for (auto& d : devices) ptrs.push_back(d.get());
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(w.genome);
  ThreadPool pool(2, "test-filter");

  pipeline::PipelineConfig fixed;
  fixed.batch_size = 512;
  fixed.verify = false;
  std::vector<PairResult> expected;
  RunCandidateStream(&engine, &pool, fixed, w, 512, &expected);

  // The source takes min(chunk, target_size) candidates per batch, so with
  // a chunk at the batcher's ceiling every batch follows its decisions.
  pipeline::PipelineConfig adaptive = fixed;
  adaptive.adaptive = true;
  adaptive.adaptive_config.min_size = 64;
  adaptive.adaptive_config.max_size = 1024;
  std::vector<PairResult> got;
  const auto stats =
      RunCandidateStream(&engine, &pool, adaptive, w, 1024, &got);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].accept, expected[i].accept) << i;
    ASSERT_EQ(got[i].edits, expected[i].edits) << i;
  }
  EXPECT_EQ(stats.pairs, w.candidates.size());
  // Every batch the source emitted respected the configured bounds.
  EXPECT_GE(stats.batch_size_min, 1u);
  EXPECT_LE(stats.batch_size_max, 1024u);
  EXPECT_GT(stats.batch_size_max, 0u);
}

}  // namespace
}  // namespace gkgpu
