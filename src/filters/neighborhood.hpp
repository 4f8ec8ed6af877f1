// The banded neighborhood maze shared by the MAGNET, Shouji and SneakySnake
// baselines: one mismatch bit-vector per diagonal d in [-e, +e], where bit j
// of diagonal d says whether read[j] differs from ref[j + d].  Out-of-range
// comparisons count as mismatches, which also encodes the leading/trailing
// edge information these filters (unlike the original GateKeeper) honour.
//
// Rows are 64-bit words in the simd/bitops64.hpp layout (bit j is bit
// 63 - j % 64 of word j / 64; bits past the length are 0), the format
// SnakeTraverse64 and the AVX2 SneakySnake maze read.  Two builders fill
// them: Build from characters (the per-pair reference paths, where 'N'
// matches only 'N') and BuildEncoded from 2-bit encoded pairs (the batch
// paths, which bypass undefined pairs before building).  They agree on
// 'N'-free pairs.
#ifndef GKGPU_FILTERS_NEIGHBORHOOD_HPP
#define GKGPU_FILTERS_NEIGHBORHOOD_HPP

#include <cstddef>
#include <string_view>
#include <vector>

#include "filters/pair_block.hpp"
#include "simd/bitops64.hpp"

namespace gkgpu {

class NeighborhoodMap {
 public:
  /// Builds the maze of a character pair of equal length.  The object is
  /// reusable: each build resizes internal storage as needed.
  void Build(std::string_view read, std::string_view ref, int e);

  /// Builds the maze of a `length`-base pair packed onto 64-bit words
  /// (simd::PackWords64 of the 2-bit encoding): per diagonal, one shifted
  /// XOR of the reference against the read, reduced to one bit per base,
  /// with out-of-range columns set.
  void BuildEncoded(const simd::U64* read, const simd::U64* ref, int length,
                    int e);

  int length() const { return length_; }
  int e() const { return e_; }
  /// 64-bit words per row.
  int words() const { return words_; }

  /// The row of diagonal d (-e <= d <= +e); rows are consecutive, so
  /// Diagonal(-e) starts the whole maze.
  const simd::U64* Diagonal(int d) const {
    return rows_.data() +
           static_cast<std::size_t>(d + e_) * static_cast<std::size_t>(words_);
  }

  /// Longest run of 0s on diagonal d within columns [lo, hi]; returns its
  /// length and writes the start column (undefined when the result is 0).
  int LongestZeroRun(int d, int lo, int hi, int* start) const;

 private:
  /// Sizes the maze for `length` and `e` with every bit 0; returns row -e.
  simd::U64* Reset(int length, int e);

  int length_ = 0;
  int e_ = 0;
  int words_ = 0;
  std::vector<simd::U64> rows_;
};

/// Filters pairs [begin, end) of `block` into results[begin..end): each
/// pair is loaded (LoadBlockPair), bypassed if undefined, else packed onto
/// 64-bit words, its maze built with BuildEncoded, and `walk(map)`'s
/// FilterResult stored.  The one batch loop of the maze filters.
template <typename Walk>
void FilterMazeRange(const PairBlock& block, std::size_t begin,
                     std::size_t end, int e, PairResult* results, Walk&& walk) {
  const int enc32 = EncodedWords(block.length);
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  simd::U64 read[simd::kMaxWords64];
  simd::U64 ref[simd::kMaxWords64];
  NeighborhoodMap map;
  for (std::size_t i = begin; i < end; ++i) {
    const BlockPairView p = LoadBlockPair(block, i, read_scratch, ref_scratch);
    if (p.bypass) {
      results[i] = BypassedPairResult();
      continue;
    }
    simd::PackWords64(p.read, enc32, read);
    simd::PackWords64(p.ref, enc32, ref);
    map.BuildEncoded(read, ref, block.length, e);
    results[i] = MakePairResult(walk(map), false);
  }
}

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_NEIGHBORHOOD_HPP
