#include "util/bitops.hpp"

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

}  // namespace gkgpu
