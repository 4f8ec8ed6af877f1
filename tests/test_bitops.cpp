// Unit + property tests for the multi-word bit-vector primitives: the
// 32-bit encoding and mask words (shifts with carry transfer, pair
// reduction, tail and range masks) and the 64-bit primitives of the
// GateKeeper kernel — amendment and run counting checked against the
// per-bit scalar model of filters/scalar_ref.hpp, on runs that cross
// 64-bit word boundaries and masks up to kMaxWords64 words.
#include "util/bitops.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "filters/scalar_ref.hpp"
#include "simd/bitops64.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::vector<int> ToBits(const Word* mask, int nbits) {
  std::vector<int> bits(static_cast<std::size_t>(nbits));
  for (int p = 0; p < nbits; ++p) {
    bits[static_cast<std::size_t>(p)] = static_cast<int>(GetMaskBit(mask, p));
  }
  return bits;
}

using simd::kMaxWords64;
using simd::kWordBits64;
using simd::U64;

/// Bit `p` of a 64-bit mask array (0 = MSB of word 0).
int GetBit64(const U64* mask, int p) {
  return static_cast<int>((mask[p / kWordBits64] >>
                           (kWordBits64 - 1 - p % kWordBits64)) &
                          1u);
}

std::vector<int> ToBits64(const U64* mask, int nwords) {
  std::vector<int> bits(static_cast<std::size_t>(nwords) * kWordBits64);
  for (std::size_t p = 0; p < bits.size(); ++p) {
    bits[p] = GetBit64(mask, static_cast<int>(p));
  }
  return bits;
}

std::vector<U64> FromBits64(const std::vector<int>& bits, int nwords) {
  std::vector<U64> mask(static_cast<std::size_t>(nwords), 0);
  for (std::size_t p = 0; p < bits.size(); ++p) {
    if (bits[p] != 0) {
      mask[p / kWordBits64] |= U64{1} << (kWordBits64 - 1 - p % kWordBits64);
    }
  }
  return mask;
}

/// Random 64-bit masks, 1 to kMaxWords64 words, whose densities vary
/// with the trial so zero and one runs of many lengths occur.
std::vector<U64> RandomMask64(Rng& rng, int trial) {
  const int nwords = 1 + static_cast<int>(rng.Uniform(kMaxWords64));
  std::vector<U64> v(static_cast<std::size_t>(nwords));
  for (U64& w : v) {
    w = rng.NextU64() & rng.NextU64();
    if (trial % 3 == 0) w |= rng.NextU64();
    if (trial % 5 == 0) w &= rng.NextU64();
  }
  return v;
}

TEST(BitopsTest, WordCounts) {
  EXPECT_EQ(EncodedWords(100), 7);   // the paper's "7 words per 100bp read"
  EXPECT_EQ(EncodedWords(16), 1);
  EXPECT_EQ(EncodedWords(17), 2);
  EXPECT_EQ(MaskWords(100), 4);
  EXPECT_EQ(MaskWords(32), 1);
  EXPECT_EQ(MaskWords(33), 2);
}

TEST(BitopsTest, BaseAccessRoundTrip) {
  Word enc[kMaxEncodedWords] = {};
  for (int i = 0; i < 100; ++i) SetBase2Bit(enc, i, (i * 7 + 3) & 0x3u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(GetBase2Bit(enc, i), static_cast<unsigned>((i * 7 + 3) & 0x3))
        << "base " << i;
  }
}

TEST(BitopsTest, ShiftToLaterMovesBitsTowardLsbEnd) {
  Word v[2] = {};
  SetMaskBit(v, 0);
  SetMaskBit(v, 31);
  Word out[2];
  ShiftToLater(v, out, 2, 1);
  EXPECT_EQ(GetMaskBit(out, 1), 1u);
  EXPECT_EQ(GetMaskBit(out, 32), 1u);  // carried across the word boundary
  EXPECT_EQ(GetMaskBit(out, 0), 0u);
}

TEST(BitopsTest, ShiftToEarlierMovesBitsTowardMsbEnd) {
  Word v[2] = {};
  SetMaskBit(v, 32);
  Word out[2];
  ShiftToEarlier(v, out, 2, 1);
  EXPECT_EQ(GetMaskBit(out, 31), 1u);
  EXPECT_EQ(GetMaskBit(out, 32), 0u);
}

TEST(BitopsTest, ShiftRoundTripPreservesInteriorBits) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int nwords = 1 + static_cast<int>(rng.Uniform(8));
    const int bits = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(nwords) * kWordBits));
    std::vector<Word> v(static_cast<std::size_t>(nwords));
    for (auto& w : v) w = rng.NextU32();
    std::vector<Word> later(v.size());
    std::vector<Word> back(v.size());
    ShiftToLater(v.data(), later.data(), nwords, bits);
    ShiftToEarlier(later.data(), back.data(), nwords, bits);
    // Bits that survived both shifts (positions [0, N - bits)) must match.
    const int total = nwords * kWordBits;
    for (int p = 0; p + bits < total; ++p) {
      EXPECT_EQ(GetMaskBit(back.data(), p), GetMaskBit(v.data(), p))
          << "trial " << trial << " bit " << p << " shift " << bits;
    }
  }
}

TEST(BitopsTest, ShiftsAgreeWithScalarModel) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const int nwords = 1 + static_cast<int>(rng.Uniform(6));
    const int total = nwords * kWordBits;
    const int shift = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(total + 8)));
    std::vector<Word> v(static_cast<std::size_t>(nwords));
    for (auto& w : v) w = rng.NextU32();
    const std::vector<int> bits = ToBits(v.data(), total);

    std::vector<Word> later(v.size());
    ShiftToLater(v.data(), later.data(), nwords, shift);
    for (int p = 0; p < total; ++p) {
      const int src = p - shift;
      const int expected =
          src >= 0 ? bits[static_cast<std::size_t>(src)] : 0;
      ASSERT_EQ(static_cast<int>(GetMaskBit(later.data(), p)), expected)
          << "later: trial " << trial << " p " << p << " shift " << shift;
    }

    std::vector<Word> earlier(v.size());
    ShiftToEarlier(v.data(), earlier.data(), nwords, shift);
    for (int p = 0; p < total; ++p) {
      const int src = p + shift;
      const int expected =
          src < total ? bits[static_cast<std::size_t>(src)] : 0;
      ASSERT_EQ(static_cast<int>(GetMaskBit(earlier.data(), p)), expected)
          << "earlier: trial " << trial << " p " << p << " shift " << shift;
    }
  }
}

TEST(BitopsTest, InPlaceShiftsMatchOutOfPlace) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int nwords = 1 + static_cast<int>(rng.Uniform(6));
    const int shift = static_cast<int>(rng.Uniform(70));
    std::vector<Word> v(static_cast<std::size_t>(nwords));
    for (auto& w : v) w = rng.NextU32();
    std::vector<Word> expected(v.size());
    ShiftToLater(v.data(), expected.data(), nwords, shift);
    std::vector<Word> inplace = v;
    ShiftToLater(inplace.data(), inplace.data(), nwords, shift);
    EXPECT_EQ(inplace, expected);

    ShiftToEarlier(v.data(), expected.data(), nwords, shift);
    inplace = v;
    ShiftToEarlier(inplace.data(), inplace.data(), nwords, shift);
    EXPECT_EQ(inplace, expected);
  }
}

TEST(BitopsTest, CompressPairsOrHalfReducesBasePairs) {
  // Base 0 = bits 31,30; base 15 = bits 1,0.
  EXPECT_EQ(CompressPairsOrHalf(0), 0u);
  EXPECT_EQ(CompressPairsOrHalf(0xC0000000u), 0x8000u);  // base 0 differs
  EXPECT_EQ(CompressPairsOrHalf(0x40000000u), 0x8000u);  // one bit is enough
  EXPECT_EQ(CompressPairsOrHalf(0x00000003u), 0x0001u);  // base 15
  EXPECT_EQ(CompressPairsOrHalf(0xFFFFFFFFu), 0xFFFFu);
}

TEST(BitopsTest, ReducePairsOrMatchesPerBaseScan) {
  Rng rng(21);
  for (const int length : {5, 16, 31, 32, 33, 100, 150, 250, 512}) {
    std::vector<Word> diff(static_cast<std::size_t>(EncodedWords(length)));
    for (auto& w : diff) w = rng.NextU32();
    std::vector<Word> mask(static_cast<std::size_t>(MaskWords(length)));
    ReducePairsOr(diff.data(), length, mask.data());
    for (int i = 0; i < length; ++i) {
      const unsigned pair = GetBase2Bit(diff.data(), i);
      EXPECT_EQ(GetMaskBit(mask.data(), i), pair != 0 ? 1u : 0u)
          << "length " << length << " base " << i;
    }
    // Tail bits must be zero.
    for (int p = length; p < MaskWords(length) * kWordBits; ++p) {
      EXPECT_EQ(GetMaskBit(mask.data(), p), 0u);
    }
  }
}

TEST(BitopsTest, CountOneRunsBasics) {
  std::vector<U64> m(2, 0);
  EXPECT_EQ(simd::CountOneRuns64(m.data(), 2), 0);
  m = FromBits64({1, 1, 0, 1, 0, 0, 1, 1, 1}, 2);
  EXPECT_EQ(simd::CountOneRuns64(m.data(), 2), 3);
  // A run crossing a 64-bit word boundary counts once, as does one that
  // covers a whole word; the last bit of the array opens a run.
  std::vector<int> bits(4 * kWordBits64, 0);
  for (int p = 60; p < 68; ++p) bits[static_cast<std::size_t>(p)] = 1;
  for (int p = 120; p < 200; ++p) bits[static_cast<std::size_t>(p)] = 1;
  bits.back() = 1;
  m = FromBits64(bits, 4);
  EXPECT_EQ(simd::CountOneRuns64(m.data(), 4), 3);
  EXPECT_EQ(simd::PopcountWords64(m.data(), 4), 8 + 80 + 1);
}

TEST(BitopsTest, CountOneRunsWalksOneLaneOfALaneMajorBuffer) {
  // The AVX2 kernels store four lanes side by side; stride 4 reads lane 2
  // alone, and its runs cross every word boundary.
  constexpr int kLanes = 4;
  constexpr int kWords = 3;
  std::vector<U64> interleaved(kLanes * kWords, ~U64{0});
  const std::vector<U64> lane = {U64{1}, ~U64{0}, U64{0x8000000000000001ULL}};
  for (int w = 0; w < kWords; ++w) {
    interleaved[static_cast<std::size_t>(w * kLanes + 2)] =
        lane[static_cast<std::size_t>(w)];
  }
  EXPECT_EQ(simd::CountOneRuns64(interleaved.data() + 2, kWords, kLanes), 2);
  EXPECT_EQ(simd::PopcountWords64(interleaved.data() + 2, kWords, kLanes),
            1 + 64 + 2);
}

TEST(BitopsTest, CountOneRunsMatchesScalarModel) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<U64> v = RandomMask64(rng, trial);
    const int nwords = static_cast<int>(v.size());
    ASSERT_EQ(simd::CountOneRuns64(v.data(), nwords),
              ScalarCountRuns(ToBits64(v.data(), nwords)))
        << "trial " << trial << " words " << nwords;
  }
}

TEST(BitopsTest, AmendFlipsOnlyShortInternalZeroRuns) {
  std::vector<U64> m = FromBits64({1, 0, 1, 0, 0, 1, 0, 0, 0, 1}, 1);
  simd::AmendShortZeroRuns64(m.data(), 1);
  std::vector<int> bits = ToBits64(m.data(), 1);
  bits.resize(10);
  EXPECT_EQ(bits, (std::vector<int>{1, 1, 1, 1, 1, 1, 0, 0, 0, 1}));
}

TEST(BitopsTest, AmendLeavesBoundaryRunsAlone) {
  // Leading and trailing zero runs have no 1 on one side: both stay.
  std::vector<int> bits(kWordBits64, 0);
  bits[2] = bits[3] = 1;
  std::vector<U64> m = FromBits64(bits, 1);
  simd::AmendShortZeroRuns64(m.data(), 1);
  EXPECT_EQ(ToBits64(m.data(), 1), bits);
}

TEST(BitopsTest, AmendCrossesWordBoundaries) {
  // Zeros 63-64 straddle words 0 and 1, and zero 128 opens word 2: both
  // runs are bounded by 1s and flip.  The leading run (0-61) and the long
  // runs (66-126, 130-190) stay.  A three-bit run across a boundary does
  // not flip either.
  std::vector<int> bits(3 * kWordBits64, 0);
  for (const int p : {62, 65, 127, 129, 191}) {
    bits[static_cast<std::size_t>(p)] = 1;
  }
  std::vector<int> expected = bits;
  expected[63] = expected[64] = expected[128] = 1;
  std::vector<U64> m = FromBits64(bits, 3);
  simd::AmendShortZeroRuns64(m.data(), 3);
  EXPECT_EQ(ToBits64(m.data(), 3), expected);

  bits.assign(3 * kWordBits64, 0);
  bits[62] = 1;
  bits[66] = 1;  // zeros 63..65: three bits across the boundary
  m = FromBits64(bits, 3);
  simd::AmendShortZeroRuns64(m.data(), 3);
  EXPECT_EQ(ToBits64(m.data(), 3), bits);
}

TEST(BitopsTest, AmendMatchesScalarModel) {
  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<U64> v = RandomMask64(rng, trial);
    const int nwords = static_cast<int>(v.size());
    std::vector<int> expected = ToBits64(v.data(), nwords);
    ScalarAmend(expected);
    simd::AmendShortZeroRuns64(v.data(), nwords);
    ASSERT_EQ(ToBits64(v.data(), nwords), expected)
        << "trial " << trial << " words " << nwords;
  }
}

TEST(BitopsTest, ZeroTailBitsClearsBeyondLength) {
  Word m[2] = {~Word{0}, ~Word{0}};
  ZeroTailBits(m, 2, 40);
  for (int p = 0; p < 40; ++p) EXPECT_EQ(GetMaskBit(m, p), 1u);
  for (int p = 40; p < 64; ++p) EXPECT_EQ(GetMaskBit(m, p), 0u);
}

TEST(BitopsTest, SetBitRangeSetsExactRange) {
  Word m[2] = {};
  SetBitRange(m, 30, 35);
  for (int p = 0; p < 64; ++p) {
    EXPECT_EQ(GetMaskBit(m, p), (p >= 30 && p < 35) ? 1u : 0u) << p;
  }
}

TEST(BitopsTest, PopcountWords) {
  Word m[2] = {0xF0F0F0F0u, 0x1u};
  EXPECT_EQ(PopcountWords(m, 2), 17);
}

}  // namespace
}  // namespace gkgpu
