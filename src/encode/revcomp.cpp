#include "encode/revcomp.hpp"

#include <array>
#include <cstdint>

namespace gkgpu {

namespace {

// ComplementBase as a 256-entry table: every read is reverse-complemented
// for seeding, and on random text a lookup is faster than the switch.
constexpr std::array<char, 256> kComplementTable = [] {
  std::array<char, 256> t{};
  for (std::size_t c = 0; c < t.size(); ++c) {
    t[c] = ComplementBase(static_cast<char>(c));
  }
  return t;
}();

}  // namespace

std::string ReverseComplement(std::string_view seq) {
  std::string out;
  ReverseComplementInto(seq, &out);
  return out;
}

void ReverseComplementInto(std::string_view seq, std::string* out) {
  out->resize(seq.size());
  char* dst = out->data();
  for (std::size_t i = seq.size(); i-- > 0;) {
    *dst++ = kComplementTable[static_cast<unsigned char>(seq[i])];
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
