// Integration tests for the GateKeeper-GPU engine: decisions must be
// bit-exact with the CPU filter in every configuration (encoding actor,
// device generation, device count, batch size), one engine may switch
// between pair and candidate mode, the run statistics must be internally
// consistent, and the modeled numbers must be the devices' own (kernel
// time, bus bytes) whatever the host's thread count.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "filters/gatekeeper.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

struct Workload {
  std::vector<std::string> reads;
  std::vector<std::string> refs;
};

Workload MakeWorkload(std::size_t n, int length, std::uint64_t seed) {
  PairProfile profile = LowEditProfile(length);
  profile.undefined_rate = 0.01;  // exercise the bypass path
  Workload w;
  for (auto& p : GeneratePairs(n, profile, seed)) {
    w.reads.push_back(std::move(p.read));
    w.refs.push_back(std::move(p.ref));
  }
  return w;
}

/// A random genome, reads cut from it with a few substitutions, and
/// `per_read` candidates per read: its own window, then random windows on
/// alternating strands.
struct CandidateSet {
  std::string genome;
  std::vector<std::string> reads;
  std::vector<CandidatePair> candidates;
};

CandidateSet MakeCandidateSet(std::size_t genome_length, std::uint32_t reads,
                              int per_read, std::uint64_t seed) {
  const int length = 100;
  Rng rng(seed);
  CandidateSet c;
  c.genome.resize(genome_length);
  for (auto& base : c.genome) base = kBases[rng.NextU64() & 0x3u];
  const std::size_t span = genome_length - length;
  for (std::uint32_t i = 0; i < reads; ++i) {
    const std::size_t start = rng.Uniform(span);
    std::string read = c.genome.substr(start, length);
    for (int m = 0; m < 3; ++m) {
      read[rng.Uniform(read.size())] = kBases[rng.NextU64() & 0x3u];
    }
    c.reads.push_back(std::move(read));
    for (int j = 0; j < per_read; ++j) {
      const std::size_t pos = j == 0 ? start : rng.Uniform(span);
      c.candidates.push_back({i, static_cast<std::uint8_t>(j % 2), 0,
                              static_cast<std::int64_t>(pos)});
    }
  }
  return c;
}

std::vector<gpusim::Device*> Ptrs(
    const std::vector<std::unique_ptr<gpusim::Device>>& devices) {
  std::vector<gpusim::Device*> ptrs;
  for (const auto& d : devices) ptrs.push_back(d.get());
  return ptrs;
}

/// `count` devices of Setup `setup` whose global memory plans `pairs` (a
/// multiple of 1,024) filtrations per call under `cfg`: the plan claims
/// 85% of free memory and rounds down to whole 1,024-pair blocks, so
/// room for half a block more plans exactly `pairs`.
std::vector<std::unique_ptr<gpusim::Device>> DevicesPlanning(
    int setup, int count, std::size_t pairs, const EngineConfig& cfg) {
  gpusim::DeviceProperties props =
      setup == 1 ? gpusim::MakeGtx1080Ti() : gpusim::MakeTeslaK20X();
  const std::size_t pair_bytes =
      ConfigureSystem(gpusim::Device(props, 1), cfg).pair_buffer_bytes;
  props.global_mem_bytes = static_cast<std::size_t>(
      static_cast<double>((pairs + 512) * pair_bytes) / 0.85);
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  for (int i = 0; i < count; ++i) {
    devices.push_back(std::make_unique<gpusim::Device>(props, 2));
  }
  return devices;
}

std::vector<PairResult> ExpectedDecisions(const Workload& w, int length,
                                          int e) {
  GateKeeperFilter filter;
  std::vector<PairResult> expected;
  expected.reserve(w.reads.size());
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    const bool undefined =
        ContainsUnknown(w.reads[i]) || ContainsUnknown(w.refs[i]);
    const FilterResult r = filter.Filter(w.reads[i], w.refs[i], e);
    expected.push_back(MakePairResult(r, undefined));
  }
  (void)length;
  return expected;
}

class EngineMatrix
    : public ::testing::TestWithParam<std::tuple<EncodingActor, int, int>> {};

TEST_P(EngineMatrix, DecisionsMatchCpuFilter) {
  const auto [actor, setup, ndev] = GetParam();
  const int length = 100;
  const int e = 5;
  const Workload w = MakeWorkload(3000, length, 42);
  const std::vector<PairResult> expected = ExpectedDecisions(w, length, e);

  auto devices = setup == 1 ? gpusim::MakeSetup1(ndev, 2)
                            : gpusim::MakeSetup2(ndev, 2);
  std::vector<gpusim::Device*> ptrs;
  for (auto& d : devices) ptrs.push_back(d.get());
  EngineConfig cfg;
  cfg.read_length = length;
  cfg.error_threshold = e;
  cfg.encoding = actor;
  GateKeeperGpuEngine engine(cfg, ptrs);

  std::vector<PairResult> results;
  const FilterRunStats stats = engine.FilterPairs(w.reads, w.refs, &results);

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].accept, expected[i].accept) << "pair " << i;
    ASSERT_EQ(results[i].bypassed, expected[i].bypassed) << "pair " << i;
    ASSERT_EQ(results[i].edits, expected[i].edits) << "pair " << i;
  }
  EXPECT_EQ(stats.pairs, w.reads.size());
  EXPECT_EQ(stats.accepted + stats.rejected, stats.pairs);
  EXPECT_GT(stats.kernel_seconds, 0.0);
  EXPECT_GE(stats.filter_seconds, stats.kernel_seconds);
}

std::string EngineMatrixName(
    const ::testing::TestParamInfo<std::tuple<EncodingActor, int, int>>&
        info) {
  const EncodingActor actor = std::get<0>(info.param);
  const int setup = std::get<1>(info.param);
  const int ndev = std::get<2>(info.param);
  return std::string(actor == EncodingActor::kHost ? "host" : "device") +
         "_setup" + std::to_string(setup) + "_gpu" + std::to_string(ndev);
}

INSTANTIATE_TEST_SUITE_P(
    ActorSetupDevices, EngineMatrix,
    ::testing::Combine(::testing::Values(EncodingActor::kHost,
                                         EncodingActor::kDevice),
                       ::testing::Values(1, 2), ::testing::Values(1, 3)),
    EngineMatrixName);

TEST(EngineTest, ResultsIndependentOfDeviceCount) {
  const Workload w = MakeWorkload(2000, 100, 7);
  std::vector<std::vector<PairResult>> all;
  for (const int ndev : {1, 2, 4, 8}) {
    auto devices = gpusim::MakeSetup1(ndev, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = 100;
    cfg.error_threshold = 4;
    GateKeeperGpuEngine engine(cfg, ptrs);
    std::vector<PairResult> results;
    engine.FilterPairs(w.reads, w.refs, &results);
    all.push_back(std::move(results));
  }
  for (std::size_t d = 1; d < all.size(); ++d) {
    ASSERT_EQ(all[d].size(), all[0].size());
    for (std::size_t i = 0; i < all[0].size(); ++i) {
      ASSERT_EQ(all[d][i].accept, all[0][i].accept)
          << "device count variant " << d << " pair " << i;
    }
  }
}

TEST(EngineTest, MultiGpuReducesKernelTime) {
  const Workload w = MakeWorkload(8000, 100, 11);
  double kt1 = 0.0;
  double kt8 = 0.0;
  for (const int ndev : {1, 8}) {
    auto devices = gpusim::MakeSetup1(ndev, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = 100;
    cfg.error_threshold = 2;
    GateKeeperGpuEngine engine(cfg, ptrs);
    std::vector<PairResult> results;
    const FilterRunStats stats = engine.FilterPairs(w.reads, w.refs, &results);
    (ndev == 1 ? kt1 : kt8) = stats.kernel_seconds;
  }
  EXPECT_LT(kt8, kt1);
}

TEST(EngineTest, DeviceEncodingRaisesKernelTimeLowersHostTime) {
  const Workload w = MakeWorkload(6000, 100, 13);
  FilterRunStats host_stats;
  FilterRunStats dev_stats;
  for (const EncodingActor actor :
       {EncodingActor::kHost, EncodingActor::kDevice}) {
    auto devices = gpusim::MakeSetup1(1, 4);
    std::vector<gpusim::Device*> ptrs{devices[0].get()};
    EngineConfig cfg;
    cfg.read_length = 100;
    cfg.error_threshold = 5;
    cfg.encoding = actor;
    GateKeeperGpuEngine engine(cfg, ptrs);
    std::vector<PairResult> results;
    const FilterRunStats s = engine.FilterPairs(w.reads, w.refs, &results);
    (actor == EncodingActor::kHost ? host_stats : dev_stats) = s;
  }
  // Kernel does more work when it encodes; host does less.
  EXPECT_GT(dev_stats.kernel_seconds, host_stats.kernel_seconds);
  EXPECT_EQ(dev_stats.host_encode_seconds, 0.0);
  EXPECT_GT(host_stats.host_encode_seconds, 0.0);
}

TEST(EngineTest, Setup2PaysUnifiedMemoryPenalty) {
  const Workload w = MakeWorkload(6000, 100, 17);
  double kt_pascal = 0.0;
  double kt_kepler = 0.0;
  for (const int setup : {1, 2}) {
    auto devices =
        setup == 1 ? gpusim::MakeSetup1(1, 2) : gpusim::MakeSetup2(1, 2);
    std::vector<gpusim::Device*> ptrs{devices[0].get()};
    EngineConfig cfg;
    cfg.read_length = 100;
    cfg.error_threshold = 5;
    GateKeeperGpuEngine engine(cfg, ptrs);
    std::vector<PairResult> results;
    const FilterRunStats s = engine.FilterPairs(w.reads, w.refs, &results);
    (setup == 1 ? kt_pascal : kt_kepler) = s.kernel_seconds;
  }
  // Kepler: slower clock/cores AND migration stalls inside the kernel.
  EXPECT_GT(kt_kepler, kt_pascal);
}

TEST(EngineTest, CandidateModeMatchesPairMode) {
  // Filtering candidates against an in-memory reference must give the same
  // decisions as filtering the equivalent explicit pairs.
  Rng rng(23);
  std::string genome;
  genome.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    genome.push_back(kBases[rng.NextU64() & 0x3u]);
  }
  const int length = 100;
  const int e = 4;
  std::vector<std::string> reads;
  std::vector<CandidatePair> candidates;
  std::vector<std::string> pair_reads;
  std::vector<std::string> pair_refs;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t pos =
        static_cast<std::int64_t>(rng.Uniform(genome.size() - length));
    std::string read = genome.substr(static_cast<std::size_t>(pos), length);
    // Mutate some reads beyond the threshold.
    const int muts = static_cast<int>(rng.Uniform(12));
    for (int m = 0; m < muts; ++m) {
      read[rng.Uniform(read.size())] = kBases[rng.NextU64() & 0x3u];
    }
    reads.push_back(read);
    candidates.push_back({static_cast<std::uint32_t>(i), 0, 0, pos});
    pair_reads.push_back(read);
    pair_refs.push_back(genome.substr(static_cast<std::size_t>(pos), length));
  }

  auto devices = gpusim::MakeSetup1(2, 2);
  std::vector<gpusim::Device*> ptrs;
  for (auto& d : devices) ptrs.push_back(d.get());
  EngineConfig cfg;
  cfg.read_length = length;
  cfg.error_threshold = e;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(genome);
  std::vector<PairResult> via_candidates;
  engine.FilterCandidates(reads, candidates, &via_candidates);

  GateKeeperGpuEngine engine2(cfg, ptrs);
  std::vector<PairResult> via_pairs;
  engine2.FilterPairs(pair_reads, pair_refs, &via_pairs);

  ASSERT_EQ(via_candidates.size(), via_pairs.size());
  for (std::size_t i = 0; i < via_pairs.size(); ++i) {
    ASSERT_EQ(via_candidates[i].accept, via_pairs[i].accept) << i;
    ASSERT_EQ(via_candidates[i].edits, via_pairs[i].edits) << i;
  }
}

TEST(EngineTest, CandidateModeBypassesReferenceNs) {
  Rng rng(31);
  std::string genome(5000, 'A');
  for (auto& c : genome) c = kBases[rng.NextU64() & 0x3u];
  genome[2050] = 'N';
  auto devices = gpusim::MakeSetup1(1, 2);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(genome);
  std::string read(100, 'A');
  for (auto& c : read) c = kBases[rng.NextU64() & 0x3u];
  std::vector<std::string> reads{read};
  std::vector<CandidatePair> candidates{{0, 0, 0, 2000}, {0, 0, 0, 3000}};
  std::vector<PairResult> results;
  const FilterRunStats stats =
      engine.FilterCandidates(reads, candidates, &results);
  // Candidate over the 'N' bypasses filtration regardless of content.
  EXPECT_EQ(results[0].bypassed, 1);
  EXPECT_EQ(results[0].accept, 1);
  // The clean segment is actually filtered and must match the CPU filter.
  GateKeeperFilter cpu;
  const FilterResult expected =
      cpu.Filter(read, genome.substr(3000, 100), cfg.error_threshold);
  EXPECT_EQ(results[1].bypassed, 0);
  EXPECT_EQ(results[1].accept, expected.accept ? 1 : 0);
  EXPECT_EQ(stats.bypassed, 1u);
}

TEST(EngineTest, CandidateModeBypassesWindowsOutsideTheGenome) {
  // A candidate window past either end of the genome bypasses without
  // being sliced out of the device-resident encoding (a sanitized build
  // reports any read past it).
  Rng rng(37);
  std::string genome(20000, 'A');
  for (auto& c : genome) c = kBases[rng.NextU64() & 0x3u];
  auto devices = gpusim::MakeSetup1(1, 2);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  GateKeeperGpuEngine engine(cfg, ptrs);
  engine.LoadReference(genome);
  const std::int64_t len = static_cast<std::int64_t>(genome.size());
  const std::vector<std::string> reads{genome.substr(19900, 100)};
  std::vector<CandidatePair> candidates;
  candidates.push_back({0, 0, 0, len - 100 + 1});
  candidates.push_back({0, 0, 0, len + 4096});
  candidates.push_back({0, 1, 0, -10000});
  candidates.push_back({0, 0, 0, len - 100});
  std::vector<PairResult> results;
  const FilterRunStats stats =
      engine.FilterCandidates(reads, candidates, &results);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].bypassed, 1) << i;
    EXPECT_EQ(results[i].accept, 1) << i;
  }
  // The last in-range window is filtered: the read matches it exactly.
  EXPECT_EQ(results[3].bypassed, 0);
  EXPECT_EQ(results[3].accept, 1);
  EXPECT_EQ(results[3].edits, 0);
  EXPECT_EQ(stats.bypassed, 3u);
}

TEST(EngineTest, MultiRoundBatchingMatchesSingleRound) {
  // Devices with room for a few 1,024-pair blocks per call: results and
  // counters must be identical to a one-round run, with the batch counter
  // reflecting the extra rounds.
  const Workload w = MakeWorkload(5000, 100, 19);
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 4;
  std::vector<PairResult> one_round;
  FilterRunStats one_stats;
  {
    auto devices = gpusim::MakeSetup1(1, 2);
    GateKeeperGpuEngine engine(cfg, Ptrs(devices));
    one_stats = engine.FilterPairs(w.reads, w.refs, &one_round);
  }
  EXPECT_EQ(one_stats.batches, 1u);
  for (const std::size_t pairs : {1024u, 2048u, 3072u}) {
    auto devices = DevicesPlanning(1, 1, pairs, cfg);
    GateKeeperGpuEngine engine(cfg, Ptrs(devices));
    std::vector<PairResult> results;
    const FilterRunStats stats = engine.FilterPairs(w.reads, w.refs, &results);
    EXPECT_EQ(engine.plan().pairs_per_batch, pairs);
    EXPECT_EQ(stats.batches, (w.reads.size() + pairs - 1) / pairs) << pairs;
    EXPECT_EQ(stats.accepted, one_stats.accepted) << pairs;
    EXPECT_EQ(stats.rejected, one_stats.rejected) << pairs;
    EXPECT_EQ(stats.bypassed, one_stats.bypassed) << pairs;
    ASSERT_EQ(results.size(), one_round.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, one_round[i].accept)
          << pairs << " pairs per call, pair " << i;
      ASSERT_EQ(results[i].edits, one_round[i].edits);
    }
  }
}

TEST(EngineTest, MultiRoundCandidateModeMatches) {
  // 1,200 candidates against a 1,024-candidate plan: two rounds.
  const CandidateSet c = MakeCandidateSet(30000, 600, 2, 29);
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 3;
  std::vector<PairResult> expected;
  {
    auto devices = gpusim::MakeSetup1(1, 2);
    GateKeeperGpuEngine engine(cfg, Ptrs(devices));
    engine.LoadReference(c.genome);
    engine.FilterCandidates(c.reads, c.candidates, &expected);
  }
  {
    auto devices = DevicesPlanning(1, 1, 1024, cfg);
    GateKeeperGpuEngine engine(cfg, Ptrs(devices));
    EXPECT_EQ(engine.plan().pairs_per_batch, 1024u);
    engine.LoadReference(c.genome);
    std::vector<PairResult> results;
    const FilterRunStats stats =
        engine.FilterCandidates(c.reads, c.candidates, &results);
    EXPECT_EQ(stats.batches, 2u);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, expected[i].accept) << i;
      ASSERT_EQ(results[i].edits, expected[i].edits) << i;
    }
  }
}

/// The engine's two inputs, pair mode under either encoding actor.
enum class Input { kHostPairs, kDevicePairs, kCandidates };

EngineConfig ConfigFor(Input input) {
  EngineConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  cfg.encoding = input == Input::kDevicePairs ? EncodingActor::kDevice
                                              : EncodingActor::kHost;
  return cfg;
}

/// One call of `input` on a fresh engine over `devices`.
FilterRunStats RunInput(
    Input input, const std::vector<std::unique_ptr<gpusim::Device>>& devices,
    const Workload& pairs, const CandidateSet& candidates) {
  GateKeeperGpuEngine engine(ConfigFor(input), Ptrs(devices));
  std::vector<PairResult> results;
  if (input != Input::kCandidates) {
    return engine.FilterPairs(pairs.reads, pairs.refs, &results);
  }
  engine.LoadReference(candidates.genome);
  return engine.FilterCandidates(candidates.reads, candidates.candidates,
                                 &results);
}

TEST(EngineTest, ModeledTimeIsTheDevicesOwn) {
  // On one device a call's kernel time is the sum of the device's own
  // launches, one per round.
  const Workload w = MakeWorkload(3000, 100, 47);
  const CandidateSet c = MakeCandidateSet(30000, 1000, 3, 53);
  for (const int setup : {1, 2}) {
    for (const bool several_rounds : {false, true}) {
      for (const Input input :
           {Input::kHostPairs, Input::kDevicePairs, Input::kCandidates}) {
        SCOPED_TRACE("setup " + std::to_string(setup) + ", input " +
                     std::to_string(static_cast<int>(input)) +
                     (several_rounds ? ", several rounds" : ", one round"));
        auto devices =
            several_rounds ? DevicesPlanning(setup, 1, 1024, ConfigFor(input))
            : setup == 1   ? gpusim::MakeSetup1(1, 2)
                           : gpusim::MakeSetup2(1, 2);
        const FilterRunStats stats = RunInput(input, devices, w, c);
        const gpusim::DeviceStats& dev = devices[0]->stats();
        EXPECT_EQ(stats.kernel_seconds, dev.kernel_seconds);
        EXPECT_EQ(stats.batches, dev.kernels_launched);
        EXPECT_EQ(stats.batches, several_rounds ? 3u : 1u);
      }
    }
  }
}

TEST(EngineTest, ResidentGenomeCrossesTheBusOnce) {
  // The kernel slices candidate windows out of the device-resident genome,
  // so its words and 'N' mask cross the bus once: at LoadReference on a
  // device with prefetch (Setup 1), at the first call's faults on one
  // without (Setup 2).  A call then moves its 100-read table (28 bytes a
  // read), bypass flags, candidates (16 bytes) and results (4 bytes):
  // 2,800 + 100 + 3,200 + 800 = 6,900 bytes.
  const CandidateSet c = MakeCandidateSet(200000, 100, 2, 59);
  // 200,000 bases at 4 per byte, and one 'N' mask bit per base.
  const std::uint64_t genome_bytes = 50000 + 25000;
  for (const int setup : {1, 2}) {
    SCOPED_TRACE("setup " + std::to_string(setup));
    auto devices =
        setup == 1 ? gpusim::MakeSetup1(1, 2) : gpusim::MakeSetup2(1, 2);
    GateKeeperGpuEngine engine(ConfigFor(Input::kCandidates), Ptrs(devices));
    const gpusim::DeviceStats& dev = devices[0]->stats();
    engine.LoadReference(c.genome);
    EXPECT_EQ(dev.h2d_bytes, setup == 1 ? genome_bytes : 0u);
    std::vector<PairResult> results;
    for (const std::uint64_t call_bytes :
         {setup == 1 ? 6900u : 6900u + genome_bytes, std::uint64_t{6900}}) {
      const std::uint64_t before = dev.h2d_bytes;
      engine.FilterCandidates(c.reads, c.candidates, &results);
      EXPECT_EQ(dev.h2d_bytes - before, call_bytes);
    }
  }
}

TEST(EngineTest, ModeledNumbersDoNotDependOnHostThreads) {
  // The host threads that stand in for a device's SMs change wall time
  // only: the modeled seconds, rounds and counts stay the same.
  const Workload w = MakeWorkload(3000, 100, 61);
  const CandidateSet c = MakeCandidateSet(30000, 500, 3, 67);
  for (const Input input :
       {Input::kHostPairs, Input::kDevicePairs, Input::kCandidates}) {
    SCOPED_TRACE("input " + std::to_string(static_cast<int>(input)));
    const FilterRunStats one =
        RunInput(input, gpusim::MakeSetup1(2, 1), w, c);
    const FilterRunStats four =
        RunInput(input, gpusim::MakeSetup1(2, 4), w, c);
    EXPECT_EQ(one.kernel_seconds, four.kernel_seconds);
    EXPECT_EQ(one.transfer_seconds, four.transfer_seconds);
    EXPECT_EQ(one.batches, four.batches);
    EXPECT_EQ(one.accepted, four.accepted);
    EXPECT_EQ(one.rejected, four.rejected);
    EXPECT_EQ(one.bypassed, four.bypassed);
  }
}

TEST(EngineTest, OneEngineSwitchesBetweenPairAndCandidateMode) {
  // The modes share buffers at different sizes: candidate mode sizes the
  // read buffer for its read table, pair mode for its pairs.  Candidates
  // -> Pairs -> Candidates -> Pairs (the last run larger than any read
  // table before it) must match fresh engines under both encoding actors.
  const int length = 100;
  Rng rng(41);
  std::string genome(20000, 'A');
  for (auto& c : genome) c = kBases[rng.NextU64() & 0x3u];
  std::vector<std::string> reads;
  std::vector<CandidatePair> candidates;
  const std::size_t span = genome.size() - length;
  for (std::uint32_t i = 0; i < 10; ++i) {
    const std::size_t start = rng.Uniform(span);
    reads.push_back(genome.substr(start, length));
    // The read's own window, then random windows on both strands.
    for (int j = 0; j < 200; ++j) {
      CandidatePair c{i, static_cast<std::uint8_t>(j % 2), 0, 0};
      c.ref_pos = static_cast<std::int64_t>(j == 0 ? start : rng.Uniform(span));
      candidates.push_back(c);
    }
  }
  const Workload small = MakeWorkload(50, length, 43);
  const Workload large = MakeWorkload(1500, length, 44);

  for (const EncodingActor actor :
       {EncodingActor::kHost, EncodingActor::kDevice}) {
    SCOPED_TRACE(actor == EncodingActor::kHost ? "host" : "device");
    auto devices = gpusim::MakeSetup1(2, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = 4;
    cfg.encoding = actor;
    const auto fresh_candidates = [&] {
      GateKeeperGpuEngine engine(cfg, ptrs);
      engine.LoadReference(genome);
      std::vector<PairResult> r;
      engine.FilterCandidates(reads, candidates, &r);
      return r;
    };
    const auto fresh_pairs = [&](const Workload& w) {
      GateKeeperGpuEngine engine(cfg, ptrs);
      std::vector<PairResult> r;
      engine.FilterPairs(w.reads, w.refs, &r);
      return r;
    };
    const auto expect_same = [](const std::vector<PairResult>& got,
                                const std::vector<PairResult>& want) {
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].accept, want[i].accept) << i;
        ASSERT_EQ(got[i].bypassed, want[i].bypassed) << i;
        ASSERT_EQ(got[i].edits, want[i].edits) << i;
      }
    };

    GateKeeperGpuEngine engine(cfg, ptrs);
    engine.LoadReference(genome);
    std::vector<PairResult> results;
    engine.FilterCandidates(reads, candidates, &results);
    expect_same(results, fresh_candidates());
    engine.FilterPairs(small.reads, small.refs, &results);
    expect_same(results, fresh_pairs(small));
    engine.FilterCandidates(reads, candidates, &results);
    expect_same(results, fresh_candidates());
    engine.FilterPairs(large.reads, large.refs, &results);
    expect_same(results, fresh_pairs(large));
  }
}

TEST(EngineTest, EmptyDeviceListIsRejectedByName) {
  EngineConfig cfg;
  try {
    const GateKeeperGpuEngine engine(cfg, {});
    ADD_FAILURE() << "an engine needs at least one device";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no devices"), std::string::npos)
        << e.what();
  }
}

TEST(EngineTest, PlanRespectsDeviceMemory) {
  auto devices = gpusim::MakeSetup2(1, 1);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  EngineConfig cfg;
  cfg.read_length = 250;
  cfg.error_threshold = 10;
  GateKeeperGpuEngine engine(cfg, ptrs);
  const SystemPlan& plan = engine.plan();
  EXPECT_GT(plan.pairs_per_batch, 0u);
  EXPECT_LE(static_cast<double>(plan.pairs_per_batch) *
                static_cast<double>(plan.pair_buffer_bytes),
            static_cast<double>(devices[0]->props().global_mem_bytes));
  EXPECT_EQ(plan.threads_per_block, 1024);
  EXPECT_DOUBLE_EQ(plan.occupancy.occupancy, 0.5);  // the paper's figure
}

}  // namespace
}  // namespace gkgpu
