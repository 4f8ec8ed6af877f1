// Edge-case coverage across modules: extreme lengths and thresholds, word
// boundaries, homopolymers, all-'N' inputs, genome edges, empty workloads,
// plan monotonicity, and the original-mode high-threshold collapse.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/myers.hpp"
#include "core/engine.hpp"
#include "encode/encoded.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/pair_block.hpp"
#include "mapper/mapper.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(EdgeCaseTest, ShortSequencesAgainstOracle) {
  Rng rng(3);
  GateKeeperFilter filter;
  MyersAligner oracle;
  for (int length = 2; length <= 20; ++length) {
    for (int e = 0; e <= std::min(3, length - 1); ++e) {
      for (int t = 0; t < 40; ++t) {
        const std::string a =
            RandomSeq(rng, static_cast<std::size_t>(length));
        std::string b = a;
        const int muts = static_cast<int>(rng.Uniform(3));
        for (int m = 0; m < muts; ++m) {
          b[rng.Uniform(b.size())] = kBases[rng.NextU64() & 0x3u];
        }
        const bool accepted = filter.Filter(a, b, e).accept;
        if (oracle.Distance(a, b) <= e) {
          ASSERT_TRUE(accepted)
              << "false reject at length " << length << " e " << e;
        }
      }
    }
  }
}

TEST(EdgeCaseTest, WordBoundaryLengths) {
  Rng rng(5);
  GateKeeperFilter filter;
  for (const int length : {15, 16, 17, 31, 32, 33, 63, 64, 65, 511, 512}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    EXPECT_TRUE(filter.Filter(seq, seq, 0).accept) << length;
    std::string mutated = seq;
    mutated[static_cast<std::size_t>(length - 1)] =
        mutated[static_cast<std::size_t>(length - 1)] == 'A' ? 'C' : 'A';
    // Final-base substitution: rejected exactly at e=0, accepted at e=1.
    EXPECT_FALSE(filter.Filter(seq, mutated, 0).accept) << length;
    EXPECT_TRUE(filter.Filter(seq, mutated, 1).accept) << length;
  }
}

TEST(EdgeCaseTest, HomopolymerPairs) {
  // Self-similar sequences: every shifted mask is identical, the worst case
  // for the AND heuristic.  Exact matches and within-threshold pairs must
  // still be accepted.
  GateKeeperFilter filter;
  const std::string poly_a(100, 'A');
  std::string poly_mixed = poly_a;
  poly_mixed[50] = 'T';
  EXPECT_TRUE(filter.Filter(poly_a, poly_a, 0).accept);
  EXPECT_FALSE(filter.Filter(poly_a, poly_mixed, 0).accept);
  EXPECT_TRUE(filter.Filter(poly_a, poly_mixed, 1).accept);
  const std::string poly_t(100, 'T');
  // 100 mismatches: rejected at e = 0 (exact XOR).  At e >= 1 every mask is
  // all-ones, so the final AND is a single unbroken streak and the streak
  // counter reads 1 error — a known pathological false accept of the
  // GateKeeper counting scheme (CountMode::kOneRuns, one error per streak,
  // filters/gatekeeper_core.hpp); real genomic pairs always produce chance
  // matches that break the streak.
  EXPECT_FALSE(filter.Filter(poly_a, poly_t, 0).accept);
  for (const int e : {1, 5, 10}) {
    const FilterResult r = filter.Filter(poly_a, poly_t, e);
    EXPECT_TRUE(r.accept) << e;
    EXPECT_EQ(r.estimated_edits, 1) << e;  // one unbroken streak
  }
}

TEST(EdgeCaseTest, ThresholdNearLengthAcceptsEverything) {
  Rng rng(7);
  GateKeeperFilter filter;
  // e = 40% of the length: the filter becomes a no-op accept for nearly
  // any input (2e+1 masks cover every alignment).
  for (int t = 0; t < 50; ++t) {
    const std::string a = RandomSeq(rng, 50);
    const std::string b = RandomSeq(rng, 50);
    EXPECT_TRUE(filter.Filter(a, b, 20).accept);
  }
}

TEST(EdgeCaseTest, AllNPairAlwaysBypasses) {
  GateKeeperFilter filter;
  const std::string n_read(100, 'N');
  const std::string ref(100, 'G');
  const FilterResult r = filter.Filter(n_read, ref, 0);
  EXPECT_TRUE(r.accept);
  EXPECT_EQ(r.estimated_edits, 0);
}

TEST(EdgeCaseTest, OriginalModeCollapsesAtHighThresholdsImprovedDoesNot) {
  // The paper's Sec. 5.1.2 observation, as a property: on dissimilar pairs
  // with a large threshold, the 2-bit-domain original pipeline accepts
  // nearly everything while the improved pipeline keeps rejecting.
  Rng rng(11);
  GateKeeperFilter improved;
  GateKeeperParams op;
  op.mode = GateKeeperMode::kOriginal;
  GateKeeperFilter original(op);
  const int e = 10;
  int original_accepts = 0;
  int improved_accepts = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const std::string a = RandomSeq(rng, 100);
    const std::string b = RandomSeq(rng, 100);
    original_accepts += original.Filter(a, b, e).accept;
    improved_accepts += improved.Filter(a, b, e).accept;
  }
  EXPECT_GT(original_accepts, trials * 9 / 10);  // collapse: accept-all
  // The improved filter is far from perfect at e = 10 (the paper itself
  // measures a 54% false-accept rate there, Table S.2) but it must keep
  // rejecting a substantial share where the original accepts everything.
  EXPECT_LT(improved_accepts, trials * 8 / 10);
  EXPECT_GT(original_accepts - improved_accepts, trials * 15 / 100);
}

TEST(EdgeCaseTest, ExtractSegmentAtGenomeEdges) {
  Rng rng(13);
  const std::string genome = RandomSeq(rng, 500);
  const ReferenceEncoding ref = EncodeReference(genome);
  Word seg[kMaxEncodedWords];
  ref.ExtractSegment(0, 100, seg);
  EXPECT_EQ(DecodeSequence(seg, 100), genome.substr(0, 100));
  ref.ExtractSegment(400, 100, seg);
  EXPECT_EQ(DecodeSequence(seg, 100), genome.substr(400, 100));
  ref.ExtractSegment(499, 1, seg);
  EXPECT_EQ(DecodeSequence(seg, 1), genome.substr(499, 1));
}

TEST(EdgeCaseTest, EngineHandlesEmptyAndSinglePairWorkloads) {
  auto devices = gpusim::MakeSetup1(2, 1);
  std::vector<gpusim::Device*> ptrs;
  for (auto& d : devices) ptrs.push_back(d.get());
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  GateKeeperGpuEngine engine(cfg, ptrs);
  std::vector<PairResult> results;
  const FilterRunStats empty = engine.FilterPairs({}, {}, &results);
  EXPECT_EQ(empty.pairs, 0u);
  EXPECT_TRUE(results.empty());

  Rng rng(17);
  const std::string seq = RandomSeq(rng, 100);
  const FilterRunStats one =
      engine.FilterPairs({seq}, {seq}, &results);
  EXPECT_EQ(one.pairs, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].accept, 1);
}

TEST(EdgeCaseTest, EngineWithFewerPairsThanDevices) {
  auto devices = gpusim::MakeSetup1(8, 1);
  std::vector<gpusim::Device*> ptrs;
  for (auto& d : devices) ptrs.push_back(d.get());
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  GateKeeperGpuEngine engine(cfg, ptrs);
  Rng rng(19);
  std::vector<std::string> reads;
  std::vector<std::string> refs;
  for (int i = 0; i < 3; ++i) {
    reads.push_back(RandomSeq(rng, 100));
    refs.push_back(reads.back());
  }
  std::vector<PairResult> results;
  const FilterRunStats stats = engine.FilterPairs(reads, refs, &results);
  EXPECT_EQ(stats.pairs, 3u);
  EXPECT_EQ(stats.accepted, 3u);
}

TEST(EdgeCaseTest, MapperHandlesReadsWithNs) {
  const std::string genome = GenerateGenome(100000, 21);
  MapperConfig cfg;
  cfg.k = 10;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  cfg.verify_threads = 2;
  ReadMapper mapper(genome, cfg);
  // A read of pure 'N' seeds nothing and maps nowhere, without crashing.
  std::vector<std::string> reads{std::string(100, 'N'),
                                 genome.substr(5000, 100)};
  const MappingStats stats = mapper.MapReads(reads, nullptr, nullptr);
  EXPECT_GE(stats.mapped_reads, 1u);
  EXPECT_LE(stats.mapped_reads, 2u);
}

TEST(EdgeCaseTest, MapperHandlesForeignReads) {
  // Reads from a different genome: no candidates or no verifications.
  const std::string genome = GenerateGenome(50000, 23);
  const std::string other = GenerateGenome(50000, 24);
  MapperConfig cfg;
  cfg.k = 12;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  cfg.verify_threads = 2;
  ReadMapper mapper(genome, cfg);
  std::vector<std::string> reads;
  for (int i = 0; i < 20; ++i) {
    reads.push_back(other.substr(static_cast<std::size_t>(i) * 1000, 100));
  }
  const MappingStats stats = mapper.MapReads(reads, nullptr, nullptr);
  EXPECT_EQ(stats.mappings, 0u);
  EXPECT_EQ(stats.mapped_reads, 0u);
}

TEST(EdgeCaseTest, KernelCostMonotonicity) {
  const auto c_small = EstimateKernelCost(100, 2, false);
  const auto c_more_e = EstimateKernelCost(100, 10, false);
  const auto c_longer = EstimateKernelCost(250, 2, false);
  const auto c_devenc = EstimateKernelCost(100, 2, true);
  EXPECT_GT(c_more_e.ops_per_thread, c_small.ops_per_thread);
  EXPECT_GT(c_longer.ops_per_thread, c_small.ops_per_thread);
  EXPECT_GT(c_devenc.ops_per_thread, c_small.ops_per_thread);
  EXPECT_GT(c_devenc.bytes_per_thread, c_small.bytes_per_thread);
}

TEST(EdgeCaseTest, PlanShrinksWithLongerReadsAndSmallerMemory) {
  auto pascal = gpusim::MakeSetup1(1, 1);
  auto kepler = gpusim::MakeSetup2(1, 1);
  EngineConfig cfg100;
  cfg100.read_length = 100;
  cfg100.error_threshold = 5;
  EngineConfig cfg250 = cfg100;
  cfg250.read_length = 250;
  cfg250.error_threshold = 10;
  const SystemPlan p100 = ConfigureSystem(*pascal[0], cfg100);
  const SystemPlan p250 = ConfigureSystem(*pascal[0], cfg250);
  const SystemPlan k100 = ConfigureSystem(*kepler[0], cfg100);
  EXPECT_GE(p100.pairs_per_batch, p250.pairs_per_batch);
  EXPECT_GE(p100.pairs_per_batch, k100.pairs_per_batch);
  EXPECT_GT(p250.thread_load_bytes, p100.thread_load_bytes);
}

/// The std::invalid_argument message `fn` throws ("" if none).
template <typename Fn>
std::string InvalidArgument(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EdgeCaseTest, ReadsPastTheKernelCapacityAreRejectedByName) {
  // The filter kernels keep per-pair scratch in stack arrays sized for
  // kMaxReadLength bases: one base more is a named error wherever a read
  // length enters filtration — the engine and the host batch API here, the
  // streaming drivers in test_pipeline — not a stack overrun.
  auto devices = gpusim::MakeSetup1(1, 1);
  const std::vector<gpusim::Device*> ptrs{devices.front().get()};
  EngineConfig cfg;
  cfg.error_threshold = 5;
  const std::string too_long = std::to_string(kMaxReadLength + 1);
  const auto expect_named = [&](const std::string& what) {
    EXPECT_NE(what.find("read length " + too_long), std::string::npos)
        << what;
    EXPECT_NE(what.find("capacity of 1 to " + std::to_string(kMaxReadLength)),
              std::string::npos)
        << what;
  };
  cfg.read_length = kMaxReadLength + 1;
  expect_named(
      InvalidArgument([&] { const GateKeeperGpuEngine engine(cfg, ptrs); }));
  expect_named(
      InvalidArgument([] { PairBlockStorage block(kMaxReadLength + 1); }));
  const std::vector<std::string> long_reads{
      std::string(static_cast<std::size_t>(kMaxReadLength) + 1, 'A')};
  expect_named(InvalidArgument(
      [&] { EncodeBatch(std::span(long_reads), kMaxReadLength + 1); }));

  // kMaxReadLength itself filters on every path.
  Rng rng(31);
  const std::string seq =
      RandomSeq(rng, static_cast<std::size_t>(kMaxReadLength));
  cfg.read_length = kMaxReadLength;
  GateKeeperGpuEngine engine(cfg, ptrs);
  std::vector<PairResult> results;
  engine.FilterPairs({seq}, {seq}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].accept, 1);
  PairBlockStorage block(kMaxReadLength);
  block.Add(seq, seq);
  PairResult batch_result{};
  GateKeeperFilter().FilterBatch(block.view(), 5, &batch_result);
  EXPECT_EQ(batch_result.accept, 1);
  const std::vector<std::string> reads{seq};
  EXPECT_EQ(EncodeBatch(std::span(reads), kMaxReadLength).size(), 1u);
}

TEST(EdgeCaseTest, MixedLengthSequencesAreRejectedByName) {
  // Every batch entry point sizes its slots from one read length: a longer
  // sequence would overrun its slot and a shorter one be compared against
  // padding, so either is a named error giving the index and both lengths.
  Rng rng(37);
  const int length = 100;
  const std::string genome = RandomSeq(rng, 5000);
  const std::string ok = genome.substr(1000, length);
  auto devices = gpusim::MakeSetup1(1, 1);
  const std::vector<gpusim::Device*> ptrs{devices.front().get()};
  EngineConfig cfg;
  cfg.read_length = length;
  cfg.error_threshold = 5;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(genome);
  GateKeeperGpuEngine host_encoding(cfg, ptrs);
  cfg.encoding = EncodingActor::kDevice;
  GateKeeperGpuEngine device_encoding(cfg, ptrs);
  const std::vector<CandidatePair> cands{{0, 0, 0, 1000}, {1, 0, 0, 1000}};
  const std::vector<std::string> same{ok, ok};
  std::vector<PairResult> results;

  for (const std::size_t odd : {std::size_t{300}, std::size_t{60}}) {
    const std::vector<std::string> mixed{ok, RandomSeq(rng, odd)};
    const std::string named =
        "sequence 1 has length " + std::to_string(odd) + ", expected 100";
    const auto expect_named = [&](const char* where, auto fn) {
      const std::string what = InvalidArgument(fn);
      EXPECT_NE(what.find(where), std::string::npos) << what;
      EXPECT_NE(what.find(named), std::string::npos) << what;
    };
    const auto filter_candidates = [&] {
      engine.FilterCandidates(mixed, cands, &results);
    };
    expect_named("GateKeeperGpuEngine::FilterCandidates", filter_candidates);
    for (GateKeeperGpuEngine* e : {&host_encoding, &device_encoding}) {
      const auto mixed_reads = [&] { e->FilterPairs(mixed, same, &results); };
      const auto mixed_refs = [&] { e->FilterPairs(same, mixed, &results); };
      expect_named("GateKeeperGpuEngine::FilterPairs", mixed_reads);
      expect_named("GateKeeperGpuEngine::FilterPairs", mixed_refs);
    }
    PairBlockStorage block(length);
    block.Add(ok, ok);
    const auto add_read = [&] { block.Add(mixed[1], ok); };
    const auto add_ref = [&] { block.Add(ok, mixed[1]); };
    expect_named("PairBlockStorage::Add", add_read);
    expect_named("PairBlockStorage::Add", add_ref);
    EXPECT_EQ(block.size(), 1u);
    const auto encode = [&] { EncodeBatch(std::span(mixed), length); };
    expect_named("EncodeBatch", encode);
  }

  // Equal lengths pass every entry point.
  engine.FilterCandidates(same, cands, &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].accept, 1);
  for (GateKeeperGpuEngine* e : {&host_encoding, &device_encoding}) {
    e->FilterPairs(same, same, &results);
    EXPECT_EQ(results.size(), 2u);
  }
  PairBlockStorage block(length);
  block.Add(ok, ok);
  block.Add(ok, ok);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(EncodeBatch(std::span(same), length).size(), 2u);
}

TEST(EdgeCaseTest, MaxLengthMaxThresholdFiltration) {
  Rng rng(29);
  GateKeeperFilter filter;
  MyersAligner oracle;
  for (int t = 0; t < 20; ++t) {
    const SequencePair p = MakePairWithEdits(
        kMaxReadLength, static_cast<int>(rng.Uniform(40)), 0.3,
        rng.NextU64());
    const int e = kMaxErrorThreshold - 1;
    const bool accepted = filter.Filter(p.read, p.ref, e).accept;
    if (oracle.Distance(p.read, p.ref) <= e) {
      ASSERT_TRUE(accepted) << "false reject at max length";
    }
  }
}

}  // namespace
}  // namespace gkgpu
