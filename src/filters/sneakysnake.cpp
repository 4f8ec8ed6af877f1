#include "filters/sneakysnake.hpp"

#include <cassert>

#include "filters/neighborhood.hpp"
#include "simd/snake_batch.hpp"

namespace gkgpu {

FilterResult SneakySnakeFilter::Filter(std::string_view read,
                                       std::string_view ref, int e) const {
  assert(read.size() == ref.size());
  NeighborhoodMap map;
  map.Build(read, ref, e);
  return simd::SnakeTraverse64(map.Diagonal(-e), map.words(), map.length(),
                               e);
}

void SneakySnakeFilter::FilterBatchImpl(const PairBlock& block, int e,
                                        PairResult* results) const {
  simd::SneakySnakeFilterRange(block, 0, block.size, e, results);
}

}  // namespace gkgpu
