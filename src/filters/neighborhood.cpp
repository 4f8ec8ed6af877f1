#include "filters/neighborhood.hpp"

#include <algorithm>
#include <cassert>

namespace gkgpu {

using simd::U64;

U64* NeighborhoodMap::Reset(int length, int e) {
  length_ = length;
  e_ = e;
  words_ = simd::Words64(MaskWords(length));
  rows_.assign(static_cast<std::size_t>(2 * e + 1) *
                   static_cast<std::size_t>(words_),
               0);
  return rows_.data();
}

void NeighborhoodMap::Build(std::string_view read, std::string_view ref,
                            int e) {
  assert(read.size() == ref.size());
  const int length = static_cast<int>(read.size());
  U64* row = Reset(length, e);
  for (int d = -e; d <= e; ++d, row += words_) {
    for (int j = 0; j < length; ++j) {
      const int rj = j + d;
      const bool mismatch =
          rj < 0 || rj >= length || read[static_cast<std::size_t>(j)] !=
                                        ref[static_cast<std::size_t>(rj)];
      row[j / simd::kWordBits64] |=
          U64{mismatch} << (simd::kWordBits64 - 1 - j % simd::kWordBits64);
    }
  }
}

void NeighborhoodMap::BuildEncoded(const U64* read, const U64* ref,
                                   int length, int e) {
  U64* row = Reset(length, e);
  const int enc64 = simd::Words64(EncodedWords(length));
  U64 shifted[simd::kMaxWords64];
  for (int d = -e; d <= e; ++d, row += words_) {
    // Column j of diagonal d compares read[j] with ref[j + d]: shift the
    // *reference* by d bases so the comparison lands on column j.
    const U64* rhs = ref;
    if (d > 0) {
      simd::ShiftToEarlier64(ref, shifted, enc64, 2 * d);
      rhs = shifted;
    } else if (d < 0) {
      simd::ShiftToLater64(ref, shifted, enc64, -2 * d);
      rhs = shifted;
    }
    simd::ReducePairsOr64(read, rhs, length, row);
    // Columns whose reference index falls outside [0, length) count as
    // mismatches — the shifted-in zero bits would otherwise compare as 'A'.
    if (d > 0) {
      simd::SetBitRange64(row, words_, std::max(0, length - d), length);
    } else if (d < 0) {
      simd::SetBitRange64(row, words_, 0, std::min(length, -d));
    }
  }
}

int NeighborhoodMap::LongestZeroRun(int d, int lo, int hi, int* start) const {
  if (lo < 0) lo = 0;
  if (hi >= length_) hi = length_ - 1;
  const U64* row = Diagonal(d);
  int best = 0;
  int best_start = lo;
  int j = lo;
  while (j <= hi) {
    int run = simd::ZeroRunFrom64(row, words_, j, length_);
    if (run == 0) {
      ++j;
      continue;
    }
    if (j + run - 1 > hi) run = hi - j + 1;
    if (run > best) {
      best = run;
      best_start = j;
    }
    j += run + 1;
  }
  if (start != nullptr) *start = best_start;
  return best;
}

}  // namespace gkgpu
