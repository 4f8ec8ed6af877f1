// Shouji (Alser et al. 2019): builds a banded neighborhood maze
// (filters/neighborhood.hpp) and slides a 4-column search window across
// it, keeping for every window the diagonal segment with the most matches;
// the surviving unmatched columns of the assembled common-subsequence
// vector estimate the edit count.
#ifndef GKGPU_FILTERS_SHOUJI_HPP
#define GKGPU_FILTERS_SHOUJI_HPP

#include "filters/filter.hpp"

namespace gkgpu {

class ShoujiFilter : public PreAlignmentFilter {
 public:
  std::string_view name() const override { return "Shouji"; }
  bool lossless() const override { return false; }  // window replacement FRs
  FilterResult Filter(std::string_view read, std::string_view ref,
                      int e) const override;
  /// Batch path: FilterMazeRange builds each pair's maze from its 2-bit
  /// encoding (NeighborhoodMap::BuildEncoded) and runs the same window
  /// walk as Filter().
  void FilterBatchImpl(const PairBlock& block, int e,
                       PairResult* results) const override;
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_SHOUJI_HPP
