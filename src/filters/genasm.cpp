#include "filters/genasm.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace gkgpu {

namespace {

constexpr int kW = 64;
// Pattern capacity: kMaxReadLength bits.
constexpr int kMaxBlocks = 512 / kW;
// Threshold capacity: one state vector per distance 0..kMaxErrorThreshold.
constexpr int kMaxStates = kMaxErrorThreshold + 1;

struct StateRow {
  std::uint64_t bits[kMaxBlocks];
};

// dst = (src << 1) | carry_in, across blocks (bit 0 of block 0 is the LSB).
void ShiftLeftInto(const std::uint64_t* src, std::uint64_t* dst, int nblocks,
                   std::uint64_t carry_in) {
  std::uint64_t carry = carry_in;
  for (int b = 0; b < nblocks; ++b) {
    const std::uint64_t next_carry = src[b] >> (kW - 1);
    dst[b] = (src[b] << 1) | carry;
    carry = next_carry;
  }
}

}  // namespace

bool BitapWithinEditDistance(std::string_view pattern, std::string_view text,
                             int e) {
  if (e < 0 || e >= kMaxStates) {
    throw std::invalid_argument(
        "GenASM: error threshold " + std::to_string(e) +
        " is outside the kernel's capacity of 0 to " +
        std::to_string(kMaxErrorThreshold));
  }
  const int m = static_cast<int>(pattern.size());
  const int n = static_cast<int>(text.size());
  if (m == 0) return n <= e;
  if (n == 0) return m <= e;
  assert(m <= kMaxBlocks * kW);
  const int nblocks = (m + kW - 1) / kW;
  const std::uint64_t match_bit = std::uint64_t{1} << ((m - 1) % kW);
  const int match_block = (m - 1) / kW;

  // Peq[c] bit i: pattern[i] == c.
  std::uint64_t peq[256][kMaxBlocks] = {};
  for (int i = 0; i < m; ++i) {
    const auto c =
        static_cast<unsigned char>(pattern[static_cast<std::size_t>(i)]);
    peq[c][i / kW] |= std::uint64_t{1} << (i % kW);
  }

  // R[d] bit i: edit(pattern[0..i], text-prefix-so-far) <= d.
  // Before any text: edit(pattern[0..i], "") = i + 1 -> bits 0..d-1.
  StateRow r[kMaxStates];
  StateRow r_new[kMaxStates];
  for (int d = 0; d <= e; ++d) {
    std::memset(r[d].bits, 0, sizeof(r[d].bits));
    for (int i = 0; i < d && i < m; ++i) {
      r[d].bits[i / kW] |= std::uint64_t{1} << (i % kW);
    }
  }

  for (int j = 0; j < n; ++j) {
    const auto c =
        static_cast<unsigned char>(text[static_cast<std::size_t>(j)]);
    // Empty-prefix ("bit -1") states: edit("", text[0..j']) = j' + 1.
    // Carried into shifts as the incoming LSB.
    // Before this character, j characters were consumed: dist = j.
    // After it: dist = j + 1.
    for (int d = 0; d <= e; ++d) {
      const std::uint64_t prev_empty_d = (j <= d) ? 1u : 0u;
      std::uint64_t shifted[kMaxBlocks];
      ShiftLeftInto(r[d].bits, shifted, nblocks, prev_empty_d);
      // Match / substitution-free extension.
      for (int b = 0; b < nblocks; ++b) {
        r_new[d].bits[b] = shifted[b] & peq[c][b];
      }
      if (d > 0) {
        const std::uint64_t prev_empty_d1 = (j <= d - 1) ? 1u : 0u;
        std::uint64_t sub[kMaxBlocks];
        ShiftLeftInto(r[d - 1].bits, sub, nblocks, prev_empty_d1);
        std::uint64_t del[kMaxBlocks];
        const std::uint64_t new_empty_d1 = (j + 1 <= d - 1) ? 1u : 0u;
        ShiftLeftInto(r_new[d - 1].bits, del, nblocks, new_empty_d1);
        for (int b = 0; b < nblocks; ++b) {
          r_new[d].bits[b] |= sub[b]              // substitution
                              | r[d - 1].bits[b]  // insertion into text
                              | del[b];           // deletion from text
        }
      }
    }
    for (int d = 0; d <= e; ++d) r[d] = r_new[d];
  }
  return (r[e].bits[match_block] & match_bit) != 0;
}

FilterResult GenAsmFilter::Filter(std::string_view read, std::string_view ref,
                                  int e) const {
  assert(read.size() == ref.size());
  const bool accept = BitapWithinEditDistance(read, ref, e);
  // The NFA answers the threshold question, not the distance itself; report
  // e+1 on rejection so callers see "beyond threshold".
  return {accept, accept ? e : e + 1};
}

}  // namespace gkgpu
