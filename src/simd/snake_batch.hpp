// SneakySnake's greedy traversal and its batch kernels over PairBlocks.
//
// SneakySnake (Alser et al. 2020) routes a single net through the
// (2e+1) x L neighborhood maze (filters/neighborhood.hpp: one 64-bit
// mismatch row per diagonal); the expensive half is building the maze.
// SnakeTraverse64 is the one traversal: SneakySnakeFilter::Filter runs it
// over the character-built maze, the scalar range over the mazes
// FilterMazeRange builds from the encoded pairs, and the AVX2 range over
// four pairs' mazes built lane-parallel and stored lane-major (the
// traversal, sequential per pair, walks each lane with a stride).
//
// Batch results equal SneakySnakeFilter::Filter's on every pair whose
// bypass bit is clear, asserted by the differential harness's batch sweep
// and tests/test_simd_batch.cpp.
#ifndef GKGPU_SIMD_SNAKE_BATCH_HPP
#define GKGPU_SIMD_SNAKE_BATCH_HPP

#include <algorithm>
#include <cstddef>

#include "filters/pair_block.hpp"
#include "simd/bitops64.hpp"

namespace gkgpu::simd {

/// The greedy snake traversal over prebuilt 64-bit neighborhood rows.
/// `rows` points at the first word of diagonal -e for one pair;
/// consecutive diagonals are mask64 * stride words apart and consecutive
/// words of one row `stride` apart (lane-major buffers pass their lane
/// count, contiguous rows pass 1).  The diagonal scan stops early once a
/// run reaches the end, which cannot change the maximum.
inline FilterResult SnakeTraverse64(const U64* rows, int mask64, int length,
                                    int e, int stride = 1) {
  const std::size_t diag_words =
      static_cast<std::size_t>(mask64) * static_cast<std::size_t>(stride);
  int pos = 0;
  int edits = 0;
  while (pos < length) {
    int best = 0;
    for (int d = -e; d <= e; ++d) {
      const U64* row = rows + static_cast<std::size_t>(d + e) * diag_words;
      best = std::max(best, ZeroRunFrom64(row, mask64, pos, length, stride));
      if (pos + best >= length) break;
    }
    pos += best;
    if (pos >= length) break;
    ++edits;  // the snake hits an obstruction: one edit, skip the column
    ++pos;
    if (edits > e) return {false, edits};
  }
  return {edits <= e, edits};
}

/// Filters pairs [begin, end) of `block` into results[begin..end) on the
/// portable uint64_t path (FilterMazeRange + SnakeTraverse64).
void SneakySnakeFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                  std::size_t end, int e,
                                  PairResult* results);

/// AVX2 variant: four pairs' neighborhood mazes per instruction stream
/// (falls back to the scalar path in binaries built without AVX2 —
/// guard explicit calls with Avx2Compiled()).
void SneakySnakeFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                                std::size_t end, int e, PairResult* results);

/// Runtime-dispatched entry point (simd::ActiveLevel()).
void SneakySnakeFilterRange(const PairBlock& block, std::size_t begin,
                            std::size_t end, int e, PairResult* results);

}  // namespace gkgpu::simd

#endif  // GKGPU_SIMD_SNAKE_BATCH_HPP
