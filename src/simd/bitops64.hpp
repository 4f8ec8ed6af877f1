// The bit-vector primitives of every filter kernel, on uint64_t words:
// GateKeeper's mask pipeline and the neighborhood mazes of MAGNET, Shouji
// and SneakySnake.  Bit 0 is the MSB of word 0 and "later" positions sit
// toward the LSB end, so shifting a read toward later positions models a
// deletion, toward earlier positions an insertion.  Two consecutive 32-bit
// encoded words (util/bitops.hpp) pack into one 64-bit word, the earlier
// word in the high half, so the AVX2 kernels hold one pair per 64-bit
// lane.  A sequence of `enc_words` 32-bit words maps onto
// Words64(enc_words) 64-bit words whose pad half (odd word counts) is
// zero, and the kernels neutralize every pad-visible difference:
// ReducePairsOr64 and ZeroTailBits64 clear all bits past the sequence
// length.  Difference masks reduce to 1 bit per base (64 bases per word).
// tests/test_bitops.cpp checks each primitive against a per-bit model.
#ifndef GKGPU_SIMD_BITOPS64_HPP
#define GKGPU_SIMD_BITOPS64_HPP

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bitops.hpp"

namespace gkgpu::simd {

using U64 = std::uint64_t;

inline constexpr int kWordBits64 = 64;
inline constexpr int kBasesPerWord64 = 32;  // 2 bits per base
/// 64-bit words covering a kMaxReadLength encoded sequence.
inline constexpr int kMaxWords64 = kMaxEncodedWords / 2;

/// 64-bit words needed to hold `nwords32` 32-bit words.
constexpr int Words64(int nwords32) { return (nwords32 + 1) / 2; }

/// Packs a 32-bit word array into 64-bit words, earlier word in the high
/// half; a trailing odd word leaves the low half zero.
inline void PackWords64(const Word* src, int nwords32, U64* dst) {
  const int n = Words64(nwords32);
  for (int k = 0; k < n; ++k) {
    const U64 hi = U64{src[2 * k]} << 32;
    const U64 lo = 2 * k + 1 < nwords32 ? U64{src[2 * k + 1]} : 0;
    dst[k] = hi | lo;
  }
}

/// dst[p + bits] = src[p]: shift toward later positions with carry-bit
/// transfer across words (the "carry-bit correction" of GateKeeper-GPU
/// Sec. 3.4); vacated leading bits become 0.  Supports bits >= 64.  src
/// and dst may alias only if identical.
inline void ShiftToLater64(const U64* src, U64* dst, int nwords, int bits) {
  if (bits <= 0) {
    if (dst != src) std::memmove(dst, src, sizeof(U64) * nwords);
    return;
  }
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = nwords - 1; i >= 0; --i) {
    const int j = i - word_off;
    U64 v = 0;
    if (bit_off == 0) {
      if (j >= 0) v = src[j];
    } else {
      if (j >= 0) v = src[j] >> bit_off;
      if (j - 1 >= 0) v |= src[j - 1] << (kWordBits64 - bit_off);
    }
    dst[i] = v;
  }
}

/// dst[p - bits] = src[p]: shift toward earlier positions; vacated
/// trailing bits become 0.
inline void ShiftToEarlier64(const U64* src, U64* dst, int nwords, int bits) {
  if (bits <= 0) {
    if (dst != src) std::memmove(dst, src, sizeof(U64) * nwords);
    return;
  }
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = 0; i < nwords; ++i) {
    const int j = i + word_off;
    U64 v = 0;
    if (bit_off == 0) {
      if (j < nwords) v = src[j];
    } else {
      if (j < nwords) v = src[j] << bit_off;
      if (j + 1 < nwords) v |= src[j + 1] >> (kWordBits64 - bit_off);
    }
    dst[i] = v;
  }
}

inline void XorWords64(const U64* a, const U64* b, U64* dst, int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = a[i] ^ b[i];
}

/// Collapses a 2-bit-per-base difference word (32 bases, MSB-first) into
/// 32 one-bit-per-base flags in the low half, base j at bit (31 - j)
/// ("every two-bit is combined with bitwise OR", GateKeeper-GPU Sec. 2.1).
inline U64 CompressPairsOr64(U64 w) {
  U64 t = (w | (w >> 1)) & 0x5555555555555555ULL;
  t = (t | (t >> 1)) & 0x3333333333333333ULL;
  t = (t | (t >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  t = (t | (t >> 4)) & 0x00FF00FF00FF00FFULL;
  t = (t | (t >> 8)) & 0x0000FFFF0000FFFFULL;
  t = (t | (t >> 16)) & 0x00000000FFFFFFFFULL;
  return t;
}

/// Zeroes every bit at position >= length_bits.
inline void ZeroTailBits64(U64* mask, int nwords, int length_bits) {
  const int full = length_bits / kWordBits64;
  const int rem = length_bits % kWordBits64;
  if (full < nwords && rem > 0) {
    mask[full] &= ~U64{0} << (kWordBits64 - rem);
  }
  for (int i = full + (rem > 0 ? 1 : 0); i < nwords; ++i) mask[i] = 0;
}

/// Reduces the 2-bit-domain difference a XOR b of two encoded sequences
/// of `length` bases to a 1-bit-per-base mask of Words64(MaskWords(length))
/// words, set where the bases differ; bits past `length` are zeroed.
inline void ReducePairsOr64(const U64* a, const U64* b, int length,
                            U64* mask) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  for (int m = 0; m < mask64; ++m) {
    const int hi = 2 * m;
    const int lo = 2 * m + 1;
    U64 w = CompressPairsOr64(hi < enc64 ? a[hi] ^ b[hi] : 0) << 32;
    w |= CompressPairsOr64(lo < enc64 ? a[lo] ^ b[lo] : 0);
    mask[m] = w;
  }
  ZeroTailBits64(mask, mask64, length);
}

/// The bits of [from, to) that fall inside word `word` (empty ranges and
/// non-overlapping words yield 0) — precomputable per word, so vector
/// lanes can OR/AND one broadcast constant instead of looping bits.
inline U64 RangeMask64(int word, int from, int to) {
  const int base = word * kWordBits64;
  const int lo = from > base ? from - base : 0;
  int hi = to - base;
  if (hi > kWordBits64) hi = kWordBits64;
  if (lo >= hi) return 0;
  const U64 down = ~U64{0} >> lo;  // lo <= 63 here
  const U64 up = ~U64{0} << (kWordBits64 - hi);
  return down & up;
}

/// Sets mask bits in [from, to).
inline void SetBitRange64(U64* mask, int nwords, int from, int to) {
  for (int w = 0; w < nwords; ++w) {
    const U64 m = RangeMask64(w, from, to);
    if (m != 0) mask[w] |= m;
  }
}

/// Number of maximal runs of 1s (0 -> 1 transitions, the position before
/// bit 0 reading as 0).  `stride` lets callers walk one lane of an
/// interleaved lane-major buffer (the AVX2 kernels store 4 lanes side by
/// side); contiguous arrays pass stride 1.
inline int CountOneRuns64(const U64* mask, int nwords, int stride = 1) {
  int runs = 0;
  U64 prev_lsb = 0;
  for (int i = 0; i < nwords; ++i) {
    const U64 w = mask[i * stride];
    const U64 before = (w >> 1) | (prev_lsb << (kWordBits64 - 1));
    runs += std::popcount(w & ~before);
    prev_lsb = w & 1u;
  }
  return runs;
}

/// Length of the run of 0s starting at bit `pos`, clamped so the run
/// never extends past `length_bits` (tail bits beyond the sequence are
/// zero by construction and must not count as matches).  `stride` walks
/// one lane of a lane-major buffer, as in CountOneRuns64.
inline int ZeroRunFrom64(const U64* row, int nwords, int pos, int length_bits,
                         int stride = 1) {
  int p = pos;
  int word = pos / kWordBits64;
  int off = pos % kWordBits64;
  while (word < nwords) {
    const U64 w = row[word * stride] << off;
    if (w != 0) {
      p += std::countl_zero(w);
      break;
    }
    p += kWordBits64 - off;
    off = 0;
    ++word;
  }
  if (p > length_bits) p = length_bits;
  return p - pos;
}

/// Total set bits; `stride` as in CountOneRuns64.
inline int PopcountWords64(const U64* mask, int nwords, int stride = 1) {
  int n = 0;
  for (int i = 0; i < nwords; ++i) n += std::popcount(mask[i * stride]);
  return n;
}

/// Flips every internal run of 0s of length <= 2 bounded by 1s on both
/// sides — the branch-free amendment, one word width up.  Fused single
/// pass: the four shifted neighborhoods are formed per word from the
/// original current/previous/next words (in-place updates must not feed
/// already-amended bits back in, hence `prev` carries the pre-amendment
/// value), so no scratch arrays and no extra passes over the mask.
inline void AmendShortZeroRuns64(U64* mask, int nwords) {
  U64 prev = 0;
  for (int i = 0; i < nwords; ++i) {
    const U64 cur = mask[i];
    const U64 next = i + 1 < nwords ? mask[i + 1] : 0;
    const U64 l1 = (cur >> 1) | (prev << (kWordBits64 - 1));
    const U64 l2 = (cur >> 2) | (prev << (kWordBits64 - 2));
    const U64 r1 = (cur << 1) | (next >> (kWordBits64 - 1));
    const U64 r2 = (cur << 2) | (next >> (kWordBits64 - 2));
    mask[i] = cur | (l1 & (r1 | r2)) | (l2 & r1);
    prev = cur;
  }
}

}  // namespace gkgpu::simd

#endif  // GKGPU_SIMD_BITOPS64_HPP
