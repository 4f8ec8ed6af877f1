// Thresholded edit distance: exact when the distance is within the budget
// k, and the mapper's verification stage (mrFAST verifies candidate
// mappings against an edit-distance threshold e, so a budget of e suffices
// for an exact accept/reject decision).  Both entry points run the Myers
// bit-vector kernel (MyersAligner::DistanceWithin).
#ifndef GKGPU_ALIGN_BANDED_HPP
#define GKGPU_ALIGN_BANDED_HPP

#include <string_view>

#include "align/myers.hpp"

namespace gkgpu {

/// Exact edit distance if it is <= k, otherwise -1 ("more than k").
/// O(ceil(m/64) * n) word operations; stops early once the distance is
/// certain to exceed k.
int BandedEditDistance(std::string_view a, std::string_view b, int k);

/// Reusable-buffer variant for verification hot loops: one instance per
/// worker thread keeps the kernel's pattern table warm over millions of
/// pairs (each chunk worker of the streaming drivers makes one call per
/// filter-accepted pair).  Not thread-safe; results identical to
/// BandedEditDistance.
class BandedVerifier {
 public:
  int Distance(std::string_view a, std::string_view b, int k) {
    return kernel_.DistanceWithin(a, b, k);
  }

 private:
  MyersAligner kernel_;
};

/// Convenience accept test used by verification: edit(a, b) <= k.
inline bool WithinEditDistance(std::string_view a, std::string_view b, int k) {
  return BandedEditDistance(a, b, k) >= 0;
}

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_BANDED_HPP
