// SneakySnake (Alser et al. 2020): approximate string matching as a single
// net routing problem.  The snake greedily crosses the (2e+1) x L chip maze
// (filters/neighborhood.hpp) taking the longest available horizontal run of
// matches over all diagonals, consuming one column (an obstruction = one
// edit) whenever it must stop.  Accepts when the maze is crossed with at
// most e obstructions.  Both paths run simd::SnakeTraverse64
// (simd/snake_batch.hpp).
#ifndef GKGPU_FILTERS_SNEAKYSNAKE_HPP
#define GKGPU_FILTERS_SNEAKYSNAKE_HPP

#include "filters/filter.hpp"

namespace gkgpu {

class SneakySnakeFilter : public PreAlignmentFilter {
 public:
  std::string_view name() const override { return "SneakySnake"; }
  FilterResult Filter(std::string_view read, std::string_view ref,
                      int e) const override;
  /// Batch path: mazes built from the encoded pairs (four pairs at a time
  /// where AVX2 dispatches), the same traversal.  Bit-identical to
  /// Filter().
  void FilterBatchImpl(const PairBlock& block, int e,
                       PairResult* results) const override;
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_SNEAKYSNAKE_HPP
