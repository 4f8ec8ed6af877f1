// Tests for the GenASM-style Bitap filter: the bit-parallel NFA must give
// the exact threshold decision (edit distance <= e), verified against the
// DP oracles across parameterized sweeps — zero false accepts AND zero
// false rejects, the property that distinguishes it from the heuristic
// filters.
#include "filters/genasm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "align/needleman_wunsch.hpp"
#include "encode/dna.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(BitapTest, KnownCases) {
  EXPECT_TRUE(BitapWithinEditDistance("ACGT", "ACGT", 0));
  EXPECT_FALSE(BitapWithinEditDistance("ACGT", "ACGA", 0));
  EXPECT_TRUE(BitapWithinEditDistance("ACGT", "ACGA", 1));
  EXPECT_TRUE(BitapWithinEditDistance("ACGT", "AGT", 1));   // deletion
  EXPECT_TRUE(BitapWithinEditDistance("ACGT", "ACCGT", 1)); // insertion
  EXPECT_FALSE(BitapWithinEditDistance("ACGT", "TGCA", 2));
  EXPECT_TRUE(BitapWithinEditDistance("", "", 0));
  EXPECT_TRUE(BitapWithinEditDistance("AC", "", 2));
  EXPECT_FALSE(BitapWithinEditDistance("AC", "", 1));
  EXPECT_TRUE(BitapWithinEditDistance("", "AC", 2));
}

struct BitapSweep {
  int length;
  int e;
};

class BitapGrid : public ::testing::TestWithParam<BitapSweep> {};

TEST_P(BitapGrid, MatchesDpOracleExactly) {
  const auto [length, e] = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(length) * 13 + e);
  for (int t = 0; t < 150; ++t) {
    const int edits = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(2 * e) + 3));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.35, rng.NextU64());
    const bool expected = NwEditDistance(p.read, p.ref) <= e;
    ASSERT_EQ(BitapWithinEditDistance(p.read, p.ref, e), expected)
        << "length " << length << " e " << e << " trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthThresholdGrid, BitapGrid,
    ::testing::Values(BitapSweep{10, 2}, BitapSweep{50, 5},
                      BitapSweep{64, 6}, BitapSweep{65, 6},
                      BitapSweep{100, 0}, BitapSweep{100, 5},
                      BitapSweep{100, 10}, BitapSweep{128, 12},
                      BitapSweep{150, 15}, BitapSweep{250, 25},
                      BitapSweep{300, 30}, BitapSweep{512, 50}),
    [](const ::testing::TestParamInfo<BitapSweep>& info) {
      return "L" + std::to_string(info.param.length) + "_e" +
             std::to_string(info.param.e);
    });

TEST(BitapTest, UnequalLengthTexts) {
  Rng rng(77);
  for (int t = 0; t < 100; ++t) {
    const std::size_t lp = 5 + rng.Uniform(100);
    const std::size_t lt = 5 + rng.Uniform(100);
    const std::string p = RandomSeq(rng, lp);
    const std::string txt = RandomSeq(rng, lt);
    const int d = NwEditDistance(p, txt);
    for (const int e : {d - 1, d, d + 1}) {
      if (e < 0 || e > 52) continue;
      ASSERT_EQ(BitapWithinEditDistance(p, txt, e), d <= e)
          << "trial " << t << " e " << e << " true " << d;
    }
  }
}

TEST(BitapTest, ThresholdsPastTheStateCapacityAreRejectedByName) {
  // The NFA keeps one state vector per distance 0..kMaxErrorThreshold in
  // a stack array: a threshold past it is a named error, not an overrun.
  const std::string a(100, 'A');
  for (const int e : {kMaxErrorThreshold + 1, -1}) {
    try {
      BitapWithinEditDistance(a, a, e);
      ADD_FAILURE() << "accepted e = " << e;
    } catch (const std::invalid_argument& ex) {
      const std::string want = "GenASM: error threshold " + std::to_string(e) +
                               " is outside the kernel's capacity of 0 to " +
                               std::to_string(kMaxErrorThreshold);
      EXPECT_NE(std::string(ex.what()).find(want), std::string::npos)
          << ex.what();
    }
  }
  EXPECT_THROW(GenAsmFilter().Filter(a, a, kMaxErrorThreshold + 1),
               std::invalid_argument);

  // kMaxErrorThreshold itself still decides exactly.
  Rng rng(83);
  for (int t = 0; t < 40; ++t) {
    const SequencePair p = MakePairWithEdits(
        150, static_cast<int>(rng.Uniform(90)), 0.35, rng.NextU64());
    ASSERT_EQ(BitapWithinEditDistance(p.read, p.ref, kMaxErrorThreshold),
              NwEditDistance(p.read, p.ref) <= kMaxErrorThreshold)
        << "trial " << t;
  }
  EXPECT_TRUE(GenAsmFilter().Filter(a, a, kMaxErrorThreshold).accept);
}

TEST(GenAsmFilterTest, ZeroFalseAcceptsAndZeroFalseRejects) {
  Rng rng(91);
  GenAsmFilter filter;
  int within = 0;
  int beyond = 0;
  for (int t = 0; t < 500; ++t) {
    const int e = 1 + static_cast<int>(rng.Uniform(10));
    const SequencePair p = MakePairWithEdits(
        100, static_cast<int>(rng.Uniform(20)), 0.3, rng.NextU64());
    const bool truth = NwEditDistance(p.read, p.ref) <= e;
    (truth ? within : beyond) += 1;
    ASSERT_EQ(filter.Filter(p.read, p.ref, e).accept, truth)
        << "trial " << t;
  }
  EXPECT_GT(within, 50);
  EXPECT_GT(beyond, 50);
}

}  // namespace
}  // namespace gkgpu
