// Thresholded edit distance: exact when the distance is within the budget
// k, and the mapper's verification stage (mrFAST verifies candidate
// mappings against an edit-distance threshold e, so a budget of e suffices
// for an exact accept/reject decision).
//
// BandedVerifier is the verification kernel every mapping driver calls.
// For the equal-length pairs they verify it works at word speed:
//   - a Hamming count (16-byte compares) settles every pair with at most
//     two mismatches, since then the edit distance equals the Hamming
//     distance;
//   - otherwise, for k <= 31, a diagonal-band bit-vector kernel (Hyyro
//     2003) keeps the 2 * floor(k / 2) + 1 cells of each column around
//     the main diagonal (an equal-length pair within k edits never strays
//     further) in one 64-bit word, and stops at the first column whose
//     diagonal score exceeds k.
// Unequal lengths, k > 31 and targets without SSE2 run the Myers kernel
// (MyersAligner::DistanceWithin), as does BandedEditDistance, the ground
// truth of the tests and accuracy harnesses.  Every path returns the same
// value.
#ifndef GKGPU_ALIGN_BANDED_HPP
#define GKGPU_ALIGN_BANDED_HPP

#include <string>
#include <string_view>

#include "align/myers.hpp"

namespace gkgpu {

/// Exact edit distance if it is <= k, otherwise -1 ("more than k").
/// O(ceil(m/64) * n) word operations; stops early once the distance is
/// certain to exceed k.
int BandedEditDistance(std::string_view a, std::string_view b, int k);

/// Number of positions at which a and b differ (a.size() == b.size()),
/// counted 16 bytes at a time.  Stops once the count exceeds `limit`:
/// the result is exact when it is <= limit, and some value > limit
/// otherwise.
int HammingWithin(std::string_view a, std::string_view b, int limit);

/// Reusable-buffer variant for verification hot loops: one instance per
/// worker thread keeps its scratch warm over millions of pairs (each chunk
/// worker of the streaming drivers makes one call per filter-accepted
/// pair).  Not thread-safe; results identical to BandedEditDistance.
class BandedVerifier {
 public:
  int Distance(std::string_view a, std::string_view b, int k);

 private:
  std::string padded_;  // the band kernel's copy of a, padded both sides
  MyersAligner kernel_;
};

/// Convenience accept test used by verification: edit(a, b) <= k.
inline bool WithinEditDistance(std::string_view a, std::string_view b, int k) {
  return BandedEditDistance(a, b, k) >= 0;
}

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_BANDED_HPP
