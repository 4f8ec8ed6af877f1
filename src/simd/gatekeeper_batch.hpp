// Batch GateKeeper filtration kernels over PairBlocks.
//
// Two implementations of one contract, both bit-identical to the 32-bit
// reference core (filters/gatekeeper_core.hpp) in decisions *and*
// estimated edits:
//
//   * scalar — the mask pipeline on multi-word uint64_t lanes
//     (simd/bitops64.hpp): half the word operations of the 32-bit core,
//     portable everywhere;
//   * AVX2   — four pairs per instruction, one uint64_t lane each,
//     compiled only where <immintrin.h> + -mavx2 are available and chosen
//     at runtime by CPUID (simd/dispatch.hpp).
//
// Both load every pair through LoadBlockPair (filters/pair_block.hpp).
// GateKeeperFilterRange() is the dispatching entry point every consumer
// uses (the device kernels' block bodies, GateKeeperFilter::FilterBatch,
// GateKeeperCpu); the Scalar/Avx2 variants stay visible so the
// equivalence fuzz test can drive both paths explicitly on one machine.
//
// Bypass contract (shared with the device kernels): a pair whose block
// bypass bit is set — or whose candidate window overlaps a reference 'N'
// — skips filtration and receives {accept=1, bypassed=1, edits=0}.
// Builders that want the FPGA baseline's no-bypass behaviour simply build
// blocks without bypass bits (PairBlockStorage::Add mark_undefined=false).
//
// GateKeeperParams::use_lut selects an implementation detail of the
// 32-bit core whose results are identical by contract (asserted in
// test_bitops); the batch kernels always run the branch-free pipeline.
#ifndef GKGPU_SIMD_GATEKEEPER_BATCH_HPP
#define GKGPU_SIMD_GATEKEEPER_BATCH_HPP

#include <cstddef>

#include "filters/gatekeeper_core.hpp"
#include "filters/pair_block.hpp"

namespace gkgpu::simd {

/// One complete filtration on 32-bit encoded sequences, run on the 64-bit
/// word pipeline.  Must agree with GateKeeperFiltration bit for bit;
/// exposed for the per-pair consumers and the equivalence tests.
FilterResult GateKeeperFiltration64(const Word* read_enc, const Word* ref_enc,
                                    int length, int e,
                                    const GateKeeperParams& params);

/// Filters pairs [begin, end) of `block` into results[begin..end) on the
/// portable uint64_t-lane path.
void GateKeeperFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                 std::size_t end, int e,
                                 const GateKeeperParams& params,
                                 PairResult* results);

/// AVX2 variant (falls back to the scalar path in binaries built without
/// AVX2 support — guard explicit calls with Avx2Compiled()).
void GateKeeperFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                               std::size_t end, int e,
                               const GateKeeperParams& params,
                               PairResult* results);

/// Runtime-dispatched entry point (simd::ActiveLevel()).
void GateKeeperFilterRange(const PairBlock& block, std::size_t begin,
                           std::size_t end, int e,
                           const GateKeeperParams& params,
                           PairResult* results);

}  // namespace gkgpu::simd

#endif  // GKGPU_SIMD_GATEKEEPER_BATCH_HPP
