// Tests for the GateKeeper filtration: the per-pair Filter() (the scalar
// 64-bit kernel of simd/gatekeeper_batch.hpp) against the character-domain
// reference GateKeeperScalar over every tail-word shape, the paper's
// Fig. 2/3 leading/trailing improvement, 'N' bypass, basic decision
// sanity, and the multicore batch runner against per-pair filtration.
#include "filters/gatekeeper.hpp"

#include <gtest/gtest.h>

#include <string>

#include "encode/encoded.hpp"
#include "filters/scalar_ref.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

FilterResult RunBitParallel(const std::string& read, const std::string& ref,
                            int e, GateKeeperParams params) {
  GateKeeperFilter filter(params);
  return filter.Filter(read, ref, e);
}

TEST(GateKeeperTest, ExactMatchAcceptedAtEveryThreshold) {
  Rng rng(3);
  for (const int length : {16, 100, 150, 250}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    for (const int e : {0, 1, 2, 5, 10}) {
      const FilterResult r = RunBitParallel(seq, seq, e, {});
      EXPECT_TRUE(r.accept) << "length " << length << " e " << e;
      EXPECT_EQ(r.estimated_edits, 0);
    }
  }
}

TEST(GateKeeperTest, ZeroThresholdIsExactMatch) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string a = RandomSeq(rng, 100);
    std::string b = a;
    if (trial % 2 == 1) {
      const std::size_t p = rng.Uniform(100);
      b[p] = b[p] == 'A' ? 'T' : 'A';
    }
    const FilterResult r = RunBitParallel(a, b, 0, {});
    EXPECT_EQ(r.accept, a == b) << "trial " << trial;
  }
}

TEST(GateKeeperTest, SingleSubstitutionAcceptedAtE1) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string a = RandomSeq(rng, 100);
    std::string b = a;
    const std::size_t p = rng.Uniform(100);
    b[p] = b[p] == 'C' ? 'G' : 'C';
    EXPECT_TRUE(RunBitParallel(a, b, 1, {}).accept) << "trial " << trial;
  }
}

TEST(GateKeeperTest, SingleIndelAcceptedAtE1) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const SequencePair p = MakePairWithEdits(100, 1, 1.0, rng.NextU64());
    EXPECT_TRUE(RunBitParallel(p.read, p.ref, 1, {}).accept)
        << "trial " << trial;
  }
}

TEST(GateKeeperTest, RandomPairsMostlyRejectedAtLowThresholds) {
  // Unrelated sequences differ in ~75% of positions.  GateKeeper is a
  // heuristic filter: the paper measures a ~7.7% false-accept rate on its
  // low-edit set at e = 2 (Sup. Table S.7), so we require >= 90% rejection
  // here, not perfection.
  Rng rng(11);
  int rejected = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const std::string a = RandomSeq(rng, 100);
    const std::string b = RandomSeq(rng, 100);
    rejected += RunBitParallel(a, b, 2, {}).accept ? 0 : 1;
  }
  EXPECT_GE(rejected, trials * 9 / 10);
}

TEST(GateKeeperTest, UndefinedPairsBypassFiltration) {
  // Find a pair the filter definitely rejects, then poison it with 'N':
  // the decision must flip to accept (bypass) regardless of content.
  Rng rng(13);
  std::string a;
  std::string b;
  do {
    a = RandomSeq(rng, 100);
    b = RandomSeq(rng, 100);
  } while (RunBitParallel(a, b, 2, {}).accept);
  a[50] = 'N';
  EXPECT_TRUE(RunBitParallel(a, b, 2, {}).accept);
  a[50] = 'A';
  ASSERT_FALSE(RunBitParallel(a, b, 2, {}).accept);
  b[10] = 'N';
  EXPECT_TRUE(RunBitParallel(a, b, 2, {}).accept);
}

// The paper's Fig. 2/3 scenario: an error at the trailing edge that the
// original GateKeeper hides (the insertion shift vacates trailing bits to
// 0) but the improved algorithm exposes.
TEST(GateKeeperTest, ImprovedModeCatchesBoundaryErrorsOriginalMisses) {
  Rng rng(17);
  int improved_rejects_more = 0;
  int original_rejects_not_improved = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const SequencePair p = MakePairWithEdits(
        100, 4 + static_cast<int>(rng.Uniform(8)), 0.5, rng.NextU64());
    GateKeeperParams improved;
    improved.mode = GateKeeperMode::kImproved;
    GateKeeperParams original;
    original.mode = GateKeeperMode::kOriginal;
    const bool acc_improved = RunBitParallel(p.read, p.ref, 2, improved).accept;
    const bool acc_original = RunBitParallel(p.read, p.ref, 2, original).accept;
    if (!acc_improved && acc_original) ++improved_rejects_more;
    if (acc_improved && !acc_original) ++original_rejects_not_improved;
  }
  // The improvement must reject pairs the original falsely accepts...
  EXPECT_GT(improved_rejects_more, 0);
  // ...and essentially never the other way around.
  EXPECT_LE(original_rejects_not_improved, improved_rejects_more / 10);
}

/// Asserts that Filter() equals GateKeeperScalar on one pair in both
/// modes and both count modes, decisions and estimated edits.
void ExpectMatchesScalar(const std::string& read, const std::string& ref,
                         int e, const std::string& where) {
  for (const GateKeeperMode mode :
       {GateKeeperMode::kImproved, GateKeeperMode::kOriginal}) {
    for (const CountMode count : {CountMode::kOneRuns, CountMode::kPopcount}) {
      GateKeeperParams params;
      params.mode = mode;
      params.count = count;
      const FilterResult bit = RunBitParallel(read, ref, e, params);
      const FilterResult scalar = GateKeeperScalar(read, ref, e, params);
      ASSERT_EQ(bit.accept, scalar.accept)
          << where << " e " << e << " mode " << static_cast<int>(mode)
          << " count " << static_cast<int>(count);
      ASSERT_EQ(bit.estimated_edits, scalar.estimated_edits)
          << where << " e " << e << " mode " << static_cast<int>(mode)
          << " count " << static_cast<int>(count);
    }
  }
}

// Lengths chosen to hit every tail-word geometry: 16-base encoded-word
// boundaries, 32-base mask-word boundaries, 64-bit word boundaries (32
// bases encoded, 64 reduced), the singleton, the paper's 100 bp, and the
// kernels' maximum.
constexpr int kGridLengths[] = {1,  5,   15,  16,  17,  31,  32,  33,
                                47, 63,  64,  65,  99,  100, 127, 128,
                                200, 256, 300, 511, 512};

TEST(GateKeeperTest, BitParallelMatchesScalarReference) {
  Rng rng(19);
  for (int trial = 0; trial < 400; ++trial) {
    const int length = 20 + static_cast<int>(rng.Uniform(230));
    const int e = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(std::min(length / 2, 25)) + 1));
    const int edits = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(length) / 3 + 1));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.3, rng.NextU64());
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesScalar(
        p.read, p.ref, e,
        "trial " + std::to_string(trial) + " length " +
            std::to_string(length)));
  }
  // The grid: every tail-word shape, thresholds up to min(52, L - 1), and
  // partners that are random, substituted or indel-bearing.
  for (const int length : kGridLengths) {
    const int bound = std::min(kMaxErrorThreshold, length - 1);
    for (int trial = 0; trial < 24; ++trial) {
      const int e = static_cast<int>(
          rng.Uniform(static_cast<std::uint64_t>(bound) + 1));
      const int edits = static_cast<int>(
          rng.Uniform(static_cast<std::uint64_t>(e) + 4));
      std::string read;
      std::string ref;
      if (trial % 4 == 0) {
        read = RandomSeq(rng, static_cast<std::size_t>(length));
        ref = RandomSeq(rng, static_cast<std::size_t>(length));
      } else if (trial % 4 == 1) {
        const SequencePair p =
            MakePairWithEdits(length, edits, 0.5, rng.NextU64());
        read = p.read;
        ref = p.ref;
      } else {
        read = RandomSeq(rng, static_cast<std::size_t>(length));
        ref = read;
        for (int k = 0; k < edits; ++k) {
          ref[rng.Uniform(ref.size())] = kBases[rng.Uniform(4)];
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesScalar(
          read, ref, e,
          "grid length " + std::to_string(length) + " trial " +
              std::to_string(trial)));
    }
  }
}

TEST(GateKeeperTest, EstimatedEditsTrackTrueEditsLoosely) {
  // The approximation is not exact but must be <= the planted edit count
  // for accepted pairs (it never over-counts a true alignment's errors).
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const int edits = static_cast<int>(rng.Uniform(6));
    const SequencePair p = MakePairWithEdits(100, edits, 0.3, rng.NextU64());
    const FilterResult r = RunBitParallel(p.read, p.ref, 10, {});
    ASSERT_TRUE(r.accept);
    EXPECT_LE(r.estimated_edits, edits) << "trial " << trial;
  }
}

TEST(GateKeeperCpuTest, BlockMatchesSingleFiltrations) {
  Rng rng(37);
  const int length = 100;
  const int e = 5;
  const std::size_t n = 2000;
  std::vector<SequencePair> pairs;
  PairBlockStorage block(length);
  for (std::size_t i = 0; i < n; ++i) {
    pairs.push_back(MakePairWithEdits(
        length, static_cast<int>(rng.Uniform(20)), 0.3, rng.NextU64()));
    block.Add(pairs[i].read, pairs[i].ref);
  }
  for (const unsigned threads : {1u, 4u, 12u}) {
    GateKeeperCpu cpu({}, threads);
    std::vector<PairResult> results(n);
    cpu.FilterBlock(block.view(), e, results.data());
    GateKeeperFilter single;
    for (std::size_t i = 0; i < n; ++i) {
      const FilterResult expected =
          single.Filter(pairs[i].read, pairs[i].ref, e);
      ASSERT_EQ(results[i].accept, expected.accept ? 1 : 0) << "i " << i;
      ASSERT_EQ(results[i].edits, expected.estimated_edits) << "i " << i;
      ASSERT_EQ(results[i].bypassed, 0) << "i " << i;
    }
  }
}

}  // namespace
}  // namespace gkgpu
