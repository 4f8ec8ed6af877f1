// The 2-bit sequence encoding and the 32-bit bit-vector primitives.
//
// Sequences are 2-bit encoded (A=00, C=01, G=10, T=11) and packed 16 bases
// per 32-bit word with the first base in the most-significant bits, exactly
// as GateKeeper-GPU describes (a 100 bp read occupies 7 words): the layout
// of every PairBlock, read table and encoded genome.  Difference masks are
// reduced to 1 bit per base (32 bases per word, first base at the MSB).
// "Later" positions are toward the LSB end of the array, so shifting a read
// toward later positions models a deletion, toward earlier positions an
// insertion.  The mask primitives here build the per-pair neighborhood
// maps of MAGNET, Shouji and SneakySnake (filters/neighborhood.hpp);
// GateKeeper's mask pipeline runs on 64-bit words (simd/bitops64.hpp).
#ifndef GKGPU_UTIL_BITOPS_HPP
#define GKGPU_UTIL_BITOPS_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gkgpu {

using Word = std::uint32_t;

inline constexpr int kWordBits = 32;
inline constexpr int kBasesPerWord = 16;  // 2 bits per base
/// Maximum supported sequence length in bases (covers the paper's 50-300 bp).
inline constexpr int kMaxReadLength = 512;
/// Encoded words needed for a kMaxReadLength sequence.
inline constexpr int kMaxEncodedWords = kMaxReadLength / kBasesPerWord;
/// Reduced (1 bit / base) mask words for a kMaxReadLength sequence.
inline constexpr int kMaxMaskWords = kMaxReadLength / kWordBits;
/// Largest error threshold accepted anywhere (10% of the longest read,
/// rounded up generously).
inline constexpr int kMaxErrorThreshold = 52;

/// Throws std::invalid_argument, naming `where`, unless the filter kernels
/// can hold `length`-base sequences: 1 to kMaxReadLength.  Their per-pair
/// scratch is fixed-size stack arrays (kMaxEncodedWords words), so every
/// entry point that sets the length of the sequences it filters checks it.
void CheckFilterReadLength(int length, const char* where);

/// Throws std::invalid_argument, naming `where`, sequence `index`, its
/// `length` and the `expected` one, unless the two agree.  Every slot of a
/// filter batch is sized from the batch's one read length, so a longer
/// sequence would overrun its slot and a shorter one would be compared
/// against padding; the batch entry points check each sequence.
void CheckSequenceLength(std::size_t length, int expected, std::size_t index,
                         const char* where);

/// Number of 32-bit words needed to 2-bit encode `length` bases.
constexpr int EncodedWords(int length) {
  return (length + kBasesPerWord - 1) / kBasesPerWord;
}

/// Number of 32-bit words in a reduced 1-bit-per-base mask of `length` bases.
constexpr int MaskWords(int length) {
  return (length + kWordBits - 1) / kWordBits;
}

/// Reads the 2-bit code of base `i` from an encoded word array.
inline unsigned GetBase2Bit(const Word* enc, int i) {
  const int word = i / kBasesPerWord;
  const int slot = i % kBasesPerWord;
  return (enc[word] >> (kWordBits - 2 - 2 * slot)) & 0x3u;
}

/// Writes the 2-bit code of base `i` into an encoded word array.
inline void SetBase2Bit(Word* enc, int i, unsigned code) {
  const int word = i / kBasesPerWord;
  const int slot = i % kBasesPerWord;
  const int sh = kWordBits - 2 - 2 * slot;
  enc[word] = (enc[word] & ~(Word{0x3u} << sh)) | (Word(code & 0x3u) << sh);
}

/// Reads bit `p` (0 = MSB of word 0) from a mask word array.
inline unsigned GetMaskBit(const Word* mask, int p) {
  return (mask[p / kWordBits] >> (kWordBits - 1 - p % kWordBits)) & 1u;
}

/// Sets bit `p` (0 = MSB of word 0) in a mask word array.
inline void SetMaskBit(Word* mask, int p) {
  mask[p / kWordBits] |= Word{1u} << (kWordBits - 1 - p % kWordBits);
}

/// dst[p + bits] = src[p]: logical shift of the whole bit string toward
/// later positions (array-wide right shift with carry-bit transfer between
/// words; this is the "carry-bit correction" of GateKeeper-GPU Sec. 3.4).
/// Vacated leading bits become 0.  Supports bits >= kWordBits.  src and dst
/// may alias only if identical.
void ShiftToLater(const Word* src, Word* dst, int nwords, int bits);

/// dst[p - bits] = src[p]: shift toward earlier positions (array-wide left
/// shift with carries).  Vacated trailing bits become 0.
void ShiftToEarlier(const Word* src, Word* dst, int nwords, int bits);

/// dst = a ^ b, word-wise.
inline void XorWords(const Word* a, const Word* b, Word* dst, int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = a[i] ^ b[i];
}

/// Collapses a 2-bit-per-base difference word into 16 one-bit-per-base flags
/// ("every two-bit is combined with bitwise OR", GateKeeper-GPU Sec. 2.1).
/// Base j of the input word lands at bit (15 - j) of the result.
inline std::uint32_t CompressPairsOrHalf(Word w) {
  Word t = (w | (w >> 1)) & 0x55555555u;  // per-base flag at even positions
  t = (t | (t >> 1)) & 0x33333333u;
  t = (t | (t >> 2)) & 0x0F0F0F0Fu;
  t = (t | (t >> 4)) & 0x00FF00FFu;
  t = (t | (t >> 8)) & 0x0000FFFFu;
  return t;
}

/// Reduces a 2-bit-domain difference mask (`enc_words` words covering
/// `length` bases) to a 1-bit-per-base mask.  Bits past `length` are zeroed.
void ReducePairsOr(const Word* diff2, int length, Word* mask);

/// Zeroes every bit at position >= length_bits.
void ZeroTailBits(Word* mask, int nwords, int length_bits);

/// Sets mask bits in [from, to).
void SetBitRange(Word* mask, int from, int to);

/// Total number of set bits.
inline int PopcountWords(const Word* mask, int nwords) {
  int n = 0;
  for (int i = 0; i < nwords; ++i) n += std::popcount(mask[i]);
  return n;
}

}  // namespace gkgpu

#endif  // GKGPU_UTIL_BITOPS_HPP
