#include "util/bitops.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace gkgpu {

void CheckFilterReadLength(int length, const char* where) {
  if (length < 1 || length > kMaxReadLength) {
    throw std::invalid_argument(
        std::string(where) + ": read length " + std::to_string(length) +
        " is outside the filter kernels' capacity of 1 to " +
        std::to_string(kMaxReadLength) + " bases");
  }
}

void CheckSequenceLength(std::size_t length, int expected, std::size_t index,
                         const char* where) {
  if (length != static_cast<std::size_t>(expected)) {
    throw std::invalid_argument(
        std::string(where) + ": sequence " + std::to_string(index) +
        " has length " + std::to_string(length) + ", expected " +
        std::to_string(expected) + " (one read length per batch)");
  }
}

void ShiftToLater(const Word* src, Word* dst, int nwords, int bits) {
  if (bits <= 0) {
    if (dst != src) std::memmove(dst, src, sizeof(Word) * nwords);
    return;
  }
  const int word_off = bits / kWordBits;
  const int bit_off = bits % kWordBits;
  // Walk from the last word backwards so that in-place shifts are safe.
  for (int i = nwords - 1; i >= 0; --i) {
    const int j = i - word_off;
    Word v = 0;
    if (bit_off == 0) {
      if (j >= 0) v = src[j];
    } else {
      if (j >= 0) v = src[j] >> bit_off;
      if (j - 1 >= 0) v |= src[j - 1] << (kWordBits - bit_off);
    }
    dst[i] = v;
  }
}

void ShiftToEarlier(const Word* src, Word* dst, int nwords, int bits) {
  if (bits <= 0) {
    if (dst != src) std::memmove(dst, src, sizeof(Word) * nwords);
    return;
  }
  const int word_off = bits / kWordBits;
  const int bit_off = bits % kWordBits;
  for (int i = 0; i < nwords; ++i) {
    const int j = i + word_off;
    Word v = 0;
    if (bit_off == 0) {
      if (j < nwords) v = src[j];
    } else {
      if (j < nwords) v = src[j] << bit_off;
      if (j + 1 < nwords) v |= src[j + 1] >> (kWordBits - bit_off);
    }
    dst[i] = v;
  }
}

void ReducePairsOr(const Word* diff2, int length, Word* mask) {
  const int enc_words = EncodedWords(length);
  const int mask_words = MaskWords(length);
  for (int m = 0; m < mask_words; ++m) {
    const int hi = 2 * m;
    const int lo = 2 * m + 1;
    Word w = CompressPairsOrHalf(hi < enc_words ? diff2[hi] : 0) << 16;
    w |= CompressPairsOrHalf(lo < enc_words ? diff2[lo] : 0);
    mask[m] = w;
  }
  ZeroTailBits(mask, mask_words, length);
}

void ZeroTailBits(Word* mask, int nwords, int length_bits) {
  const int full = length_bits / kWordBits;
  const int rem = length_bits % kWordBits;
  if (full < nwords && rem > 0) {
    mask[full] &= ~Word{0} << (kWordBits - rem);
  }
  for (int i = full + (rem > 0 ? 1 : 0); i < nwords; ++i) mask[i] = 0;
}

void SetBitRange(Word* mask, int from, int to) {
  for (int p = from; p < to; ++p) SetMaskBit(mask, p);
}

int CountOneRuns(const Word* mask, int nwords) {
  int runs = 0;
  Word prev_lsb = 0;  // bit just before the current word's MSB
  for (int i = 0; i < nwords; ++i) {
    const Word w = mask[i];
    const Word before = (w >> 1) | (prev_lsb << (kWordBits - 1));
    runs += std::popcount(w & ~before);
    prev_lsb = w & 1u;
  }
  return runs;
}

const RunCountLut& RunCountLut::Instance() {
  static const RunCountLut lut = [] {
    RunCountLut t{};
    for (int state = 0; state < 2; ++state) {
      for (unsigned nib = 0; nib < 16; ++nib) {
        int runs = 0;
        int s = state;
        for (int b = 3; b >= 0; --b) {  // MSB-first within the nibble
          const int bit = (nib >> b) & 1;
          if (bit == 1 && s == 0) ++runs;
          s = bit;
        }
        t.table[(state << 4) | nib] =
            static_cast<std::uint8_t>((runs << 1) | s);
      }
    }
    return t;
  }();
  return lut;
}

int CountOneRunsLut(const Word* mask, int nwords) {
  const RunCountLut& lut = RunCountLut::Instance();
  int runs = 0;
  unsigned state = 0;
  for (int i = 0; i < nwords; ++i) {
    const Word w = mask[i];
    for (int shift = kWordBits - 4; shift >= 0; shift -= 4) {
      const unsigned nib = (w >> shift) & 0xFu;
      const unsigned packed = lut.table[(state << 4) | nib];
      runs += packed >> 1;
      state = packed & 1u;
    }
  }
  return runs;
}

void AmendShortZeroRuns(Word* mask, int nwords) {
  // A 0 at position p is flipped when it belongs to a run of <= 2 zeros
  // bounded by 1s:
  //   run of 1:  v[p-1] & v[p+1]
  //   run of 2:  (v[p-1] & v[p+2]) at the first zero,
  //              (v[p-2] & v[p+1]) at the second zero.
  // l<n>[p] = v[p-n], r<n>[p] = v[p+n]; all computed from the original mask.
  // Scratch sized for the larger 2-bit-domain masks (kMaxEncodedWords).
  constexpr int kMax = kMaxEncodedWords;
  Word l1[kMax], l2[kMax], r1[kMax], r2[kMax];
  ShiftToLater(mask, l1, nwords, 1);
  ShiftToLater(mask, l2, nwords, 2);
  ShiftToEarlier(mask, r1, nwords, 1);
  ShiftToEarlier(mask, r2, nwords, 2);
  for (int i = 0; i < nwords; ++i) {
    mask[i] |= (l1[i] & r1[i]) | (l1[i] & r2[i]) | (l2[i] & r1[i]);
  }
}

const AmendLut& AmendLut::Instance() {
  static const AmendLut lut = [] {
    AmendLut t{};
    for (unsigned idx = 0; idx < 4096; ++idx) {
      const unsigned left = (idx >> 10) & 0x3u;   // v[p-2], v[p-1] (MSB-first)
      const unsigned byte = (idx >> 2) & 0xFFu;   // v[p] .. v[p+7]
      const unsigned right = idx & 0x3u;          // v[p+8], v[p+9]
      // Assemble the 12-bit neighbourhood MSB-first and apply the scalar
      // amendment rule inside the 8-bit core.
      int bits[12];
      bits[0] = (left >> 1) & 1;
      bits[1] = left & 1;
      for (int b = 0; b < 8; ++b) bits[2 + b] = (byte >> (7 - b)) & 1;
      bits[10] = (right >> 1) & 1;
      bits[11] = right & 1;
      unsigned out = byte;
      for (int b = 0; b < 8; ++b) {
        const int p = 2 + b;
        if (bits[p] != 0) continue;
        const bool left1 = bits[p - 1] == 1;
        const bool left2 = bits[p - 2] == 1;
        const bool right1 = bits[p + 1] == 1;
        const bool right2 = bits[p + 2] == 1;
        if ((left1 && right1) || (left1 && right2) || (left2 && right1)) {
          out |= 1u << (7 - b);
        }
      }
      t.table[idx] = static_cast<std::uint8_t>(out);
    }
    return t;
  }();
  return lut;
}

void AmendShortZeroRunsLut(Word* mask, int nwords) {
  const AmendLut& lut = AmendLut::Instance();
  // Gather original bytes MSB-first so neighbour bits come from the
  // unamended mask, then rewrite.  Sized for 2-bit-domain masks.
  constexpr int kMaxBytes = kMaxEncodedWords * 4;
  std::uint8_t orig[kMaxBytes];
  const int nbytes = nwords * 4;
  for (int i = 0; i < nwords; ++i) {
    orig[4 * i + 0] = static_cast<std::uint8_t>(mask[i] >> 24);
    orig[4 * i + 1] = static_cast<std::uint8_t>(mask[i] >> 16);
    orig[4 * i + 2] = static_cast<std::uint8_t>(mask[i] >> 8);
    orig[4 * i + 3] = static_cast<std::uint8_t>(mask[i]);
  }
  for (int b = 0; b < nbytes; ++b) {
    const unsigned prev = b > 0 ? orig[b - 1] : 0;
    const unsigned next = b + 1 < nbytes ? orig[b + 1] : 0;
    const unsigned left = prev & 0x3u;          // v[p-2], v[p-1]
    const unsigned right = (next >> 6) & 0x3u;  // v[p+8], v[p+9]
    const unsigned idx = (left << 10) | (unsigned{orig[b]} << 2) | right;
    const std::uint8_t amended = lut.table[idx];
    const int word = b / 4;
    const int sh = 24 - 8 * (b % 4);
    mask[word] = (mask[word] & ~(Word{0xFFu} << sh)) | (Word{amended} << sh);
  }
}

}  // namespace gkgpu
