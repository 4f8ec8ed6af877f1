#include "simd/snake_batch.hpp"

#include "filters/neighborhood.hpp"
#include "simd/dispatch.hpp"

namespace gkgpu::simd {

void SneakySnakeFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                  std::size_t end, int e,
                                  PairResult* results) {
  FilterMazeRange(block, begin, end, e, results,
                  [](const NeighborhoodMap& map) {
                    return SnakeTraverse64(map.Diagonal(-map.e()), map.words(),
                                           map.length(), map.e());
                  });
}

void SneakySnakeFilterRange(const PairBlock& block, std::size_t begin,
                            std::size_t end, int e, PairResult* results) {
  if (ActiveLevel() == Level::kAvx2) {
    SneakySnakeFilterRangeAvx2(block, begin, end, e, results);
  } else {
    SneakySnakeFilterRangeScalar(block, begin, end, e, results);
  }
}

}  // namespace gkgpu::simd
