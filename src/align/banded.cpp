#include "align/banded.hpp"

namespace gkgpu {

int BandedEditDistance(std::string_view a, std::string_view b, int k) {
  // One kernel per thread: one-shot callers (blocking MapReads, the
  // accuracy harnesses) skip the pattern-table allocation per call.
  thread_local MyersAligner kernel;
  return kernel.DistanceWithin(a, b, k);
}

}  // namespace gkgpu
