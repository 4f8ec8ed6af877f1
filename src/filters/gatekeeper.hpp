// GateKeeper as a host-side pre-alignment filter.
//
//  * GateKeeperFilter(kImproved)  — the GateKeeper-GPU algorithm run on the
//    CPU; also the engine's reference semantics (the simulated device kernel
//    must agree bit-for-bit).
//  * GateKeeperFilter(kOriginal)  — the original GateKeeper/FPGA algorithm
//    without the leading/trailing fix, used as the accuracy baseline
//    ("GateKeeper-FPGA" in the paper's comparison figures).
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

  /// String-level reference entry point.  Pairs containing 'N' bypass
  /// filtration and are accepted outright (GateKeeper-GPU Sec. 3.3 design
  /// choice).
  FilterResult Filter(std::string_view read, std::string_view ref,
                      int e) const override;

  /// Batch entry point: the vectorized encoded-domain pipeline
  /// (simd/gatekeeper_batch.hpp — uint64_t lanes, AVX2 behind runtime
  /// dispatch), bit-identical to Filter() per pair.
  void FilterBatchImpl(const PairBlock& block, int e,
                   PairResult* results) const override;

  /// Encoded-domain entry point used by batch runners.
  FilterResult FilterEncoded(const Word* read_enc, const Word* ref_enc,
                             int length, int e) const {
    return GateKeeperFiltration(read_enc, ref_enc, length, e, params_);
  }

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
