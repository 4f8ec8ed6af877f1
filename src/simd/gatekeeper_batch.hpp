// The GateKeeper filtration kernel: one mask pipeline, run per pair or
// over a PairBlock range.
//
// Algorithm (GateKeeper-GPU Sec. 2.1 + 3.4):
//   1. Hamming mask  H = read XOR ref, OR-reduced to 1 bit per base.
//   2. For k = 1..e: deletion mask  D_k = (read >> 2k) XOR ref and
//      insertion mask I_k = (read << 2k) XOR ref, with carry-bit transfer
//      across the word array.
//   3. Every mask is amended (internal 0-runs of length <= 2 flipped to 1);
//      with e == 0 the Hamming mask is counted unamended.
//   4. Improved mode only: the k boundary positions vacated by each shift
//      are ORed to 1 after amendment — the leading/trailing fix that
//      distinguishes GateKeeper-GPU from the original GateKeeper.
//      Original mode (GateKeeper-FPGA / SHD) keeps every mask in the 2-bit
//      domain instead of reducing it (GateKeeperMode).
//   5. Final mask = AND of all 2e+1 masks; errors = its runs of 1s (or its
//      popcount, CountMode); accept iff errors <= e.
//
// Two tiers of one contract, identical in decisions *and* estimated edits
// to the character-domain reference GateKeeperScalar
// (filters/scalar_ref.hpp):
//
//   * scalar — the pipeline on multi-word uint64_t lanes
//     (simd/bitops64.hpp), portable everywhere: GateKeeperFiltration64
//     (the per-pair GateKeeperFilter::Filter, in every configuration) and
//     GateKeeperFilterRangeScalar;
//   * AVX2   — four pairs per instruction, one uint64_t lane each,
//     compiled only where <immintrin.h> + -mavx2 are available and chosen
//     at runtime by CPUID (simd/dispatch.hpp).
//
// Both ranges load every pair through LoadBlockPair
// (filters/pair_block.hpp).  GateKeeperFilterRange() is the dispatching
// entry point every batch consumer uses (the device kernels' block
// bodies, GateKeeperFilter::FilterBatch, GateKeeperCpu); the Scalar/Avx2
// variants stay visible so the equivalence test can drive both paths
// explicitly on one machine.
//
// Bypass contract (shared with the device kernels): a pair whose block
// bypass bit is set — or whose candidate window overlaps a reference 'N'
// — skips filtration and receives {accept=1, bypassed=1, edits=0}.
// Builders that want the FPGA baseline's no-bypass behaviour simply build
// blocks without bypass bits (PairBlockStorage::Add mark_undefined=false).
#ifndef GKGPU_SIMD_GATEKEEPER_BATCH_HPP
#define GKGPU_SIMD_GATEKEEPER_BATCH_HPP

#include <cstddef>

#include "filters/filter.hpp"
#include "filters/gatekeeper_core.hpp"
#include "filters/pair_block.hpp"

namespace gkgpu::simd {

/// One complete filtration of a pair of 2-bit encoded sequences (32-bit
/// words, as EncodeSequence writes them) of `length` bases, 1 to
/// kMaxReadLength, at threshold `e` (0 <= e <= kMaxErrorThreshold,
/// e < length).  Does not bypass: the caller decides about undefined
/// bases.
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
