// The 2-bit sequence storage layout and the filter kernels' limits.
//
// Sequences are 2-bit encoded (A=00, C=01, G=10, T=11) and packed 16 bases
// per 32-bit word with the first base in the most-significant bits, exactly
// as GateKeeper-GPU describes (a 100 bp read occupies 7 words): the layout
// of every PairBlock, read table and encoded genome.  The kernels pack two
// such words into one 64-bit word and run every mask primitive there
// (simd/bitops64.hpp); MaskWords counts a 1-bit-per-base mask in 32-bit
// words, which those kernels size their 64-bit masks from.
#ifndef GKGPU_UTIL_BITOPS_HPP
#define GKGPU_UTIL_BITOPS_HPP

#include <cstddef>
#include <cstdint>

namespace gkgpu {

using Word = std::uint32_t;

inline constexpr int kWordBits = 32;
inline constexpr int kBasesPerWord = 16;  // 2 bits per base
/// Maximum supported sequence length in bases (covers the paper's 50-300 bp).
inline constexpr int kMaxReadLength = 512;
/// Encoded words needed for a kMaxReadLength sequence.
inline constexpr int kMaxEncodedWords = kMaxReadLength / kBasesPerWord;
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

}  // namespace gkgpu

#endif  // GKGPU_UTIL_BITOPS_HPP
