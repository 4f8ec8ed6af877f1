// DNA alphabet helpers: 2-bit codes (A=00, C=01, G=10, T=11) as defined by
// the GateKeeper algorithm.  'N' (unknown base call) has no 2-bit code; the
// filter bypasses pairs containing it (GateKeeper-GPU Sec. 3.3).
#ifndef GKGPU_ENCODE_DNA_HPP
#define GKGPU_ENCODE_DNA_HPP

#include <array>
#include <cstdint>
#include <string_view>

namespace gkgpu {

inline constexpr char kBases[4] = {'A', 'C', 'G', 'T'};

/// 2-bit code for an upper/lower-case base; returns 4 for anything else
/// ('N' and malformed characters).
constexpr unsigned BaseToCode(char c) {
  switch (c) {
    case 'A': case 'a': return 0;
    case 'C': case 'c': return 1;
    case 'G': case 'g': return 2;
    case 'T': case 't': return 3;
    default: return 4;
  }
}

/// BaseToCode as a 256-entry table, for the loops that decode base after
/// base (the k-mer index build, seed encoding): on random text a lookup is
/// faster than the switch.
inline constexpr std::array<std::uint8_t, 256> kBaseCodeTable = [] {
  std::array<std::uint8_t, 256> t{};
  for (std::size_t c = 0; c < t.size(); ++c) {
    t[c] = static_cast<std::uint8_t>(BaseToCode(static_cast<char>(c)));
  }
  return t;
}();

inline unsigned BaseCode(char c) {
  return kBaseCodeTable[static_cast<unsigned char>(c)];
}

/// The 2k-bit code of the `k` bases at `kmer`, first base in the top bits,
/// or -1 when one of them is not A/C/G/T (either case).
inline std::int64_t EncodeKmer(const char* kmer, int k) {
  std::uint64_t code = 0;
  unsigned unknown = 0;
  for (int i = 0; i < k; ++i) {
    const unsigned c = BaseCode(kmer[i]);
    unknown |= c;
    code = (code << 2) | (c & 0x3u);
  }
  return (unknown & 0x4u) != 0 ? -1 : static_cast<std::int64_t>(code);
}

inline char CodeToBase(unsigned code) { return kBases[code & 0x3u]; }

inline bool IsKnownBase(char c) { return BaseToCode(c) < 4; }

inline bool ContainsUnknown(std::string_view seq) {
  for (char c : seq) {
    if (!IsKnownBase(c)) return true;
  }
  return false;
}

}  // namespace gkgpu

#endif  // GKGPU_ENCODE_DNA_HPP
