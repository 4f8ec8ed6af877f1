#include "encode/revcomp.hpp"

#include <cstdint>

namespace gkgpu {

std::string ReverseComplement(std::string_view seq) {
  std::string out;
  ReverseComplementInto(seq, &out);
  return out;
}

void ReverseComplementInto(std::string_view seq, std::string* out) {
  out->resize(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    (*out)[i] = ComplementBase(seq[seq.size() - 1 - i]);
  }
}

namespace {

/// The sixteen 2-bit codes of `w` in reverse order.
inline Word ReverseCodes(Word w) {
  w = __builtin_bswap32(w);
  w = ((w >> 4) & 0x0F0F0F0Fu) | ((w & 0x0F0F0F0Fu) << 4);
  return ((w >> 2) & 0x33333333u) | ((w & 0x33333333u) << 2);
}

}  // namespace

void ReverseComplementEncoded(const Word* in, int length, Word* out) {
  const int nwords = EncodedWords(length);
  if (nwords == 0) return;
  // Reversing whole words puts the input's unused tail bits in front of
  // the reversed bases; shifting every word left by the tail width drops
  // them, and the zeros shifted in behind the last base, complemented to
  // ones, are cleared at the end.
  const int tail = 2 * (nwords * kBasesPerWord - length);
  std::uint64_t hi = ReverseCodes(in[nwords - 1]);
  for (int w = 0; w < nwords; ++w) {
    const std::uint64_t lo =
        w + 1 < nwords ? ReverseCodes(in[nwords - 2 - w]) : 0;
    out[w] = ~static_cast<Word>(((hi << kWordBits) | lo) >> (kWordBits - tail));
    hi = lo;
  }
  out[nwords - 1] &= ~Word{0} << tail;
}

}  // namespace gkgpu
