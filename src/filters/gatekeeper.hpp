// GateKeeper as a host-side pre-alignment filter.  Per pair and per batch
// it runs the one mask pipeline of simd/gatekeeper_batch.hpp, whose
// reference is GateKeeperScalar (filters/scalar_ref.hpp).
//
//  * GateKeeperFilter(kImproved)  — the GateKeeper-GPU algorithm run on the
//    CPU; the simulated device kernel runs the same batch kernel.
//  * GateKeeperFilter(kGateKeeperFpga) — the original GateKeeper/FPGA
//    algorithm without the leading/trailing fix, used as the accuracy
//    baseline: both "GateKeeper-FPGA" and "SHD" in the paper's comparison
//    figures (gatekeeper_core.hpp).
//  * GateKeeperCpu                — the multicore batch runner: the
//    throughput benches' "GateKeeper-CPU" (1..N cores).
#ifndef GKGPU_FILTERS_GATEKEEPER_HPP
#define GKGPU_FILTERS_GATEKEEPER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "filters/filter.hpp"
#include "filters/gatekeeper_core.hpp"

namespace gkgpu {

class ThreadPool;

class GateKeeperFilter : public PreAlignmentFilter {
 public:
  explicit GateKeeperFilter(GateKeeperParams params = {}) : params_(params) {}

  std::string_view name() const override {
    return params_.mode == GateKeeperMode::kImproved ? "GateKeeper-GPU"
                                                     : "GateKeeper-FPGA";
  }

  /// String-level entry point: encodes the pair and runs the scalar
  /// 64-bit pipeline (simd::GateKeeperFiltration64).  Pairs containing 'N'
  /// bypass filtration and are accepted outright (GateKeeper-GPU Sec. 3.3
  /// design choice) unless bypass_undefined is off.
  FilterResult Filter(std::string_view read, std::string_view ref,
                      int e) const override;

  /// Batch entry point: the same pipeline over a block
  /// (simd/gatekeeper_batch.hpp — uint64_t lanes, AVX2 behind runtime
  /// dispatch), bit-identical to Filter() per pair.
  void FilterBatchImpl(const PairBlock& block, int e,
                   PairResult* results) const override;

  const GateKeeperParams& params() const { return params_; }

 private:
  GateKeeperParams params_;
};

/// Multicore batched GateKeeper: the "GateKeeper-CPU" baseline.  Work
/// arrives as a PairBlock and is sharded across a pool in chunks of 4,096
/// pairs, each chunk one GateKeeperFilter::FilterBatch call (the
/// runtime-dispatched batch kernel plus the filter funnel); results land
/// in a caller-provided PairResult buffer, exactly like a device kernel's.
class GateKeeperCpu {
 public:
  /// Owns a pool of `threads` workers (none when threads <= 1).
  GateKeeperCpu(GateKeeperParams params, unsigned threads);
  ~GateKeeperCpu();

  /// Filters every pair of `block` with threshold `e` into
  /// results[0..block.size).
  void FilterBlock(const PairBlock& block, int e, PairResult* results) const;

  unsigned threads() const;

 private:
  GateKeeperFilter filter_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_GATEKEEPER_HPP
