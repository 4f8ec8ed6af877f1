// Reverse-complement primitives, the strand-awareness foundation of the
// mapper: a read sampled from the reverse strand matches the forward
// reference only after reverse-complementing, so seeding, filtration and
// verification all need revcomp in both representations — plain character
// strings (host seeding / verification / SAM output) and 2-bit encoded
// word arrays (the device kernels, which never see per-candidate strings).
#ifndef GKGPU_ENCODE_REVCOMP_HPP
#define GKGPU_ENCODE_REVCOMP_HPP

#include <string>
#include <string_view>

#include "util/bitops.hpp"

namespace gkgpu {

/// Complement of a 2-bit base code: A<->T, C<->G is exactly a bit flip
/// under the A=00, C=01, G=10, T=11 encoding.
inline constexpr unsigned ComplementCode(unsigned code) { return code ^ 0x3u; }

/// Complement of a base character; 'N' (and anything malformed) stays 'N',
/// preserving the undefined-pair bypass semantics.
inline constexpr char ComplementBase(char c) {
  switch (c) {
    case 'A': case 'a': return 'T';
    case 'C': case 'c': return 'G';
    case 'G': case 'g': return 'C';
    case 'T': case 't': return 'A';
    default: return 'N';
  }
}

/// Reverse complement of a character sequence (uppercased; unknown bases
/// become 'N').
std::string ReverseComplement(std::string_view seq);

/// In-place variant reusing the caller's buffer (verification hot loops
/// revcomp one read per strand-flipped candidate group).
void ReverseComplementInto(std::string_view seq, std::string* out);

/// Reverse complement of a 2-bit encoded sequence of `length` bases into
/// `out` (EncodedWords(length) words, tail bits zeroed; the input's tail
/// bits are ignored).  `out` must not alias `in`.  Works a word at a time:
/// each word's sixteen codes are reversed (a byte swap and two
/// mask-and-shift steps), the words are taken in reverse order, shifted
/// left by the tail width and complemented.  Matches
/// EncodeSequence(ReverseComplement(...)) bit for bit on N-free input;
/// 'N' has no 2-bit code (it encodes as A, so its reverse complement
/// carries T's), so callers track unknown bases through the has-N flags
/// exactly as in the forward direction.
void ReverseComplementEncoded(const Word* in, int length, Word* out);

}  // namespace gkgpu

#endif  // GKGPU_ENCODE_REVCOMP_HPP
