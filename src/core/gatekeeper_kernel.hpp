// The GateKeeper-GPU device kernel, written the way the CUDA __global__
// function is: a thin view over the PairBlock sitting in unified memory
// (filters/pair_block.hpp is the CPU mirror of that layout).  It runs the
// paper's configuration, GateKeeperParams{}: the improved mask pipeline,
// with undefined ('N') pairs bypassed to verification.  The block's
// shape selects the paper's three input configurations:
//   * encoded    — host pre-encoded read/ref pairs,
//   * raw        — raw characters, the kernel encodes ("encoding in
//                  device"),
//   * candidates — mrFAST integration: encoded reads + candidate reference
//     indices; the kernel extracts each reference segment from the encoded
//     genome in unified memory ("starting with extracting the relevant
//     reference segment based on the index", Sec. 3.5).
//
// Execution granularity: one simulated *block* runs its pair range through
// the one GateKeeper kernel (simd/gatekeeper_batch.hpp — uint64_t lanes,
// AVX2 behind runtime dispatch), which the first thread of the block
// drives; per-pair results equal GateKeeperFilter::Filter's and the
// reference GateKeeperScalar's (asserted by test_gatekeeper and
// test_simd_batch), the parallel grain (one task per block on the
// device's worker pool) is unchanged, and the timing model still charges
// per-thread cost.
#ifndef GKGPU_CORE_GATEKEEPER_KERNEL_HPP
#define GKGPU_CORE_GATEKEEPER_KERNEL_HPP

#include <algorithm>
#include <cstdint>

#include "filters/gatekeeper_core.hpp"
#include "filters/pair_block.hpp"
#include "gpusim/device.hpp"
#include "simd/gatekeeper_batch.hpp"

namespace gkgpu {

struct PairBlockKernel {
  PairBlock block;
  PairResult* results = nullptr;
  int e = 0;

  void operator()(const gpusim::ThreadCtx& ctx) const {
    // Thread 0 of each simulated block filters the block's whole pair
    // range as one batch; its sibling threads contribute no separate work
    // (their per-pair cost is still accounted by the timing model).
    if (ctx.thread_idx != 0) return;
    const std::size_t begin = static_cast<std::size_t>(ctx.block_idx) *
                              static_cast<std::size_t>(ctx.block_dim);
    if (begin >= block.size) return;
    const std::size_t end =
        std::min(block.size,
                 begin + static_cast<std::size_t>(ctx.block_dim));
    simd::GateKeeperFilterRange(block, begin, end, e, GateKeeperParams{},
                                results);
  }
};

}  // namespace gkgpu

#endif  // GKGPU_CORE_GATEKEEPER_KERNEL_HPP
