// Unit + property tests for the 2-bit storage layout (util/bitops.hpp)
// and the 64-bit primitives every filter kernel runs (simd/bitops64.hpp):
// shifts with carry transfer, pair reduction, tail and range masks, zero
// runs, amendment and run counting, each checked against a per-bit model
// (filters/scalar_ref.hpp for the last two) on masks of 1 to kMaxWords64
// words, across 64-bit word boundaries.
#include "util/bitops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "filters/scalar_ref.hpp"
#include "simd/bitops64.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

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

TEST(BitopsTest, Shifts64AgreeWithScalarModel) {
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<U64> v = RandomMask64(rng, trial);
    const int nwords = static_cast<int>(v.size());
    const int total = nwords * kWordBits64;
    const int shift = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(total + 8)));
    const std::vector<int> bits = ToBits64(v.data(), nwords);
    std::vector<int> later(bits.size(), 0);
    std::vector<int> earlier(bits.size(), 0);
    for (int p = 0; p < total; ++p) {
      if (p - shift >= 0) later[p] = bits[p - shift];
      if (p + shift < total) earlier[p] = bits[p + shift];
    }
    std::vector<U64> out(v.size());
    simd::ShiftToLater64(v.data(), out.data(), nwords, shift);
    ASSERT_EQ(ToBits64(out.data(), nwords), later)
        << "later: trial " << trial << " shift " << shift;
    std::vector<U64> inplace = v;
    simd::ShiftToLater64(inplace.data(), inplace.data(), nwords, shift);
    ASSERT_EQ(inplace, out) << "later in place: trial " << trial;

    simd::ShiftToEarlier64(v.data(), out.data(), nwords, shift);
    ASSERT_EQ(ToBits64(out.data(), nwords), earlier)
        << "earlier: trial " << trial << " shift " << shift;
    inplace = v;
    simd::ShiftToEarlier64(inplace.data(), inplace.data(), nwords, shift);
    ASSERT_EQ(inplace, out) << "earlier in place: trial " << trial;
  }
}

TEST(BitopsTest, ReducePairsOr64MatchesPerBaseScan) {
  Rng rng(21);
  for (const int length :
       {5, 16, 31, 32, 33, 63, 64, 65, 100, 150, 250, 511, 512}) {
    for (int trial = 0; trial < 4; ++trial) {
      // Every bit of the inputs is random, the pad past `length` included;
      // b is a with a sparse difference, so equal bases occur too.
      const auto nenc =
          static_cast<std::size_t>(simd::Words64(EncodedWords(length)));
      std::vector<U64> a(nenc);
      std::vector<U64> b(nenc);
      std::vector<U64> diff(nenc);
      for (std::size_t w = 0; w < nenc; ++w) {
        a[w] = rng.NextU64();
        diff[w] = rng.NextU64() & rng.NextU64();
        b[w] = a[w] ^ diff[w];
      }
      const int nmask = simd::Words64(MaskWords(length));
      std::vector<U64> mask(static_cast<std::size_t>(nmask));
      simd::ReducePairsOr64(a.data(), b.data(), length, mask.data());
      const std::vector<int> bits = ToBits64(mask.data(), nmask);
      for (int i = 0; i < nmask * kWordBits64; ++i) {
        const int pair =
            i < length ? GetBit64(diff.data(), 2 * i) |
                             GetBit64(diff.data(), 2 * i + 1)
                       : 0;
        ASSERT_EQ(bits[static_cast<std::size_t>(i)], pair)
            << "length " << length << " base " << i;
      }
    }
  }
}

TEST(BitopsTest, ZeroTailBits64MatchesScalarModel) {
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<U64> v = RandomMask64(rng, trial);
    const int nwords = static_cast<int>(v.size());
    const int total = nwords * kWordBits64;
    // Lengths on and beside a word boundary as often as anywhere else.
    const int boundary = 64 * static_cast<int>(rng.Uniform(nwords + 1)) +
                         static_cast<int>(rng.Uniform(3)) - 1;
    const int length = trial % 2 == 0
                           ? static_cast<int>(rng.Uniform(total + 1))
                           : std::min(total, std::max(0, boundary));
    std::vector<int> expected = ToBits64(v.data(), nwords);
    std::fill(expected.begin() + length, expected.end(), 0);
    simd::ZeroTailBits64(v.data(), nwords, length);
    ASSERT_EQ(ToBits64(v.data(), nwords), expected)
        << "trial " << trial << " length " << length;
  }
}

TEST(BitopsTest, SetBitRange64MatchesScalarModel) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<U64> v = RandomMask64(rng, trial);
    if (trial % 2 == 0) std::fill(v.begin(), v.end(), U64{0});
    const int nwords = static_cast<int>(v.size());
    const int total = nwords * kWordBits64;
    int from = static_cast<int>(rng.Uniform(total + 1));
    int to = static_cast<int>(rng.Uniform(total + 1));
    if (from > to) std::swap(from, to);
    std::vector<int> expected = ToBits64(v.data(), nwords);
    std::fill(expected.begin() + from, expected.begin() + to, 1);
    simd::SetBitRange64(v.data(), nwords, from, to);
    ASSERT_EQ(ToBits64(v.data(), nwords), expected)
        << "trial " << trial << " [" << from << ", " << to << ")";
  }
}

TEST(BitopsTest, ZeroRunFrom64StopsAtAOneOrTheLength) {
  // Maze rows are zero past the sequence; a run that reaches the end is
  // clamped there, also when it runs on into the zero tail.  Stride 4
  // walks the same row as one lane of a lane-major buffer.
  constexpr int kLanes = 4;
  Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<U64> v = RandomMask64(rng, trial);
    const int nwords = static_cast<int>(v.size());
    const int length =
        1 + static_cast<int>(rng.Uniform(nwords * kWordBits64));
    simd::ZeroTailBits64(v.data(), nwords, length);
    const std::vector<int> bits = ToBits64(v.data(), nwords);
    std::vector<U64> lanes(static_cast<std::size_t>(nwords) * kLanes,
                           ~U64{0});
    for (int w = 0; w < nwords; ++w) {
      lanes[static_cast<std::size_t>(w * kLanes + 1)] =
          v[static_cast<std::size_t>(w)];
    }
    for (int pos = 0; pos < length; ++pos) {
      int run = 0;
      while (pos + run < length && bits[pos + run] == 0) ++run;
      ASSERT_EQ(simd::ZeroRunFrom64(v.data(), nwords, pos, length), run)
          << "trial " << trial << " pos " << pos << " length " << length;
      ASSERT_EQ(
          simd::ZeroRunFrom64(lanes.data() + 1, nwords, pos, length, kLanes),
          run)
          << "lane: trial " << trial << " pos " << pos;
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

}  // namespace
}  // namespace gkgpu
