#include "filters/shouji.hpp"

#include <bit>
#include <cassert>

#include "filters/neighborhood.hpp"

namespace gkgpu {

namespace {

using simd::kWordBits64;
using simd::U64;

constexpr int kWindow = 4;

/// The `w` (<= kWindow) bits of `row` from column j on, column j highest;
/// the caller keeps j + w within the sequence, so a window that crosses a
/// word boundary always has a next word.
unsigned WindowBits(const U64* row, int j, int w) {
  const int word = j / kWordBits64;
  const int off = j % kWordBits64;
  U64 top = row[word] << off;
  if (off + w > kWordBits64) top |= row[word + 1] >> (kWordBits64 - off);
  return static_cast<unsigned>(top >> (kWordBits64 - w));
}

/// The sliding-window common-subsequence assembly over a built
/// neighborhood maze — shared by the per-pair reference path (character
/// maze) and the batch path (encoded maze), so the two differ only in how
/// the diagonals were produced.
FilterResult ShoujiWalk(const NeighborhoodMap& map) {
  // Shouji bit-vector: starts all-mismatch; each sliding window stores the
  // best (fewest mismatches) diagonal segment it found, but only if doing
  // so strictly reduces the number of mismatches in that span of the
  // vector (the Shouji paper's Algorithm 1 update rule).
  const int length = map.length();
  const int e = map.e();
  U64 common[simd::kMaxWords64] = {};
  simd::SetBitRange64(common, map.words(), 0, length);

  for (int j = 0; j < length; ++j) {
    const int w = j + kWindow <= length ? kWindow : length - j;
    unsigned best = (1u << w) - 1u;
    int best_ones = w + 1;
    for (int d = -e; d <= e; ++d) {
      const unsigned bits = WindowBits(map.Diagonal(d), j, w);
      const int ones = std::popcount(bits);
      if (ones < best_ones) {
        best_ones = ones;
        best = bits;
      }
    }
    if (best_ones < std::popcount(WindowBits(common, j, w))) {
      for (int t = 0; t < w; ++t) {
        const int p = j + t;
        const U64 bit = U64{1} << (kWordBits64 - 1 - p % kWordBits64);
        if ((best & (1u << (w - 1 - t))) == 0) {
          common[p / kWordBits64] &= ~bit;
        } else {
          common[p / kWordBits64] |= bit;
        }
      }
    }
  }

  const int edits = simd::PopcountWords64(common, map.words());
  return {edits <= e, edits};
}

}  // namespace

FilterResult ShoujiFilter::Filter(std::string_view read, std::string_view ref,
                                  int e) const {
  assert(read.size() == ref.size());
  NeighborhoodMap map;
  map.Build(read, ref, e);
  return ShoujiWalk(map);
}

void ShoujiFilter::FilterBatchImpl(const PairBlock& block, int e,
                                   PairResult* results) const {
  FilterMazeRange(block, 0, block.size, e, results, ShoujiWalk);
}

}  // namespace gkgpu
