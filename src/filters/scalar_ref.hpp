// Scalar (obviously correct, slow) reference implementation of the
// GateKeeper filtration, used exclusively by the tests to validate the
// bit-parallel kernel (simd/gatekeeper_batch.hpp) and its primitives:
// masks built with per-character comparisons, amendment by explicit run
// scanning, counting by explicit transitions.
#ifndef GKGPU_FILTERS_SCALAR_REF_HPP
#define GKGPU_FILTERS_SCALAR_REF_HPP

#include <string_view>
#include <vector>

#include "filters/filter.hpp"
#include "filters/gatekeeper_core.hpp"

namespace gkgpu {

/// Per-base difference mask of `read` shifted by `shift` bases against
/// `ref`.  shift > 0 models a deletion (read moves toward later positions:
/// position p compares read[p - shift] vs ref[p]); shift < 0 an insertion.
/// Positions whose read index falls outside [0, L) compare the shifted-in
/// zero bits (base 'A' code) against the reference, exactly as the logical
/// shifts in the bit-parallel version do.
std::vector<int> ScalarMask(std::string_view read, std::string_view ref,
                            int shift);

/// 2-bit-domain difference mask (the original FPGA pipeline): 2L entries,
/// the actual XOR bits of the encoded base codes.
std::vector<int> ScalarMask2Bit(std::string_view read, std::string_view ref,
                                int shift);

/// Flips internal 0-runs of length <= 2 bounded by 1s on both sides.
void ScalarAmend(std::vector<int>& mask);

/// Number of maximal runs of 1s.
int ScalarCountRuns(const std::vector<int>& mask);

/// Full scalar GateKeeper filtration; GateKeeperFilter::Filter and the
/// batch kernels must agree with it in decisions and estimated edits.
FilterResult GateKeeperScalar(std::string_view read, std::string_view ref,
                              int e, const GateKeeperParams& params);

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_SCALAR_REF_HPP
