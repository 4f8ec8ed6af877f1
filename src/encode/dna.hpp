// DNA alphabet helpers: 2-bit codes (A=00, C=01, G=10, T=11) as defined by
// the GateKeeper algorithm.  'N' (unknown base call) has no 2-bit code; the
// filter bypasses pairs containing it (GateKeeper-GPU Sec. 3.3).
#ifndef GKGPU_ENCODE_DNA_HPP
#define GKGPU_ENCODE_DNA_HPP

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
