// The parameters of the GateKeeper filtration: which variant of the mask
// pipeline runs, how the final mask's errors are counted, and whether
// undefined pairs bypass it.  The pipeline itself is one kernel,
// simd/gatekeeper_batch.hpp (the per-pair GateKeeperFiltration64, the
// scalar and AVX2 batch ranges); filters/scalar_ref.hpp is its reference.
#ifndef GKGPU_FILTERS_GATEKEEPER_CORE_HPP
#define GKGPU_FILTERS_GATEKEEPER_CORE_HPP

namespace gkgpu {

/// Which variant of the algorithm to run.
///
/// kImproved is GateKeeper-GPU: difference masks are OR-reduced to one bit
/// per base and the bits vacated by each shift are forced to 1 after
/// amendment (the leading/trailing fix).
///
/// kOriginal is the GateKeeper-FPGA / SHD pipeline: masks stay in the
/// 2-bit-per-base domain end to end and vacated bits are left as shifted
/// in.  The lower per-bit mask density (0.5 vs 0.75 on dissimilar pairs)
/// makes the AND of many masks collapse toward all-zero at high error
/// thresholds — reproducing the paper's observation that GateKeeper-FPGA
/// and SHD "completely stop filtering in high error thresholds of
/// high-edit profile datasets and accept all pairs" while GateKeeper-GPU
/// keeps rejecting (Sec. 5.1.2).
enum class GateKeeperMode {
  kImproved,  // GateKeeper-GPU
  kOriginal,  // GateKeeper-FPGA / SHD behaviour
};

/// How errors are counted in the final mask.  kOneRuns (each maximal streak
/// of 1s counts once) is the shipping behaviour; kPopcount is kept for the
/// ablation bench and is deliberately stricter.
enum class CountMode { kOneRuns, kPopcount };

struct GateKeeperParams {
  GateKeeperMode mode = GateKeeperMode::kImproved;
  CountMode count = CountMode::kOneRuns;
  /// Pass pairs containing 'N' straight to verification (GateKeeper-GPU's
  /// Sec. 3.3 design choice).  The FPGA original has no such mechanism —
  /// it simply encodes unknown bases as 'A' — so the accuracy baselines
  /// disable this.
  bool bypass_undefined = true;
};

/// GateKeeper-FPGA (Alser et al. 2017) and SHD (Xin et al. 2015), its SIMD
/// ancestor: both build the same 2e + 1 masks in the original pipeline and
/// decide alike (the paper's identical false-accept columns).  Neither has
/// a per-pair 'N' bypass; a block built with bypass bits still bypasses.
inline constexpr GateKeeperParams kGateKeeperFpga{
    .mode = GateKeeperMode::kOriginal,
    .count = CountMode::kOneRuns,
    .bypass_undefined = false,
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_GATEKEEPER_CORE_HPP
