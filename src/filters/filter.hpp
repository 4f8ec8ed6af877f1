// Common interface for pre-alignment filters.  A filter inspects a read and
// its candidate reference segment (equal length, as produced by seed
// extension) and decides quickly whether the pair could be within the edit
// threshold: accept (needs real verification) or reject (skip alignment).
// Filters may over-accept (false accepts cost verification time) but should
// never over-reject (false rejects lose mappings).
//
// The batch-first entry point is FilterBatch: one call filters a whole
// PairBlock (structure-of-arrays, see filters/pair_block.hpp) with no
// per-pair virtual dispatch on the hot path.  FilterBatch itself is a
// non-virtual wrapper — it delegates to the virtual FilterBatchImpl and
// then folds the results into the process-wide filter funnel
// (obs/names.hpp: accepts/rejects/bypasses labeled by filter name and
// SIMD dispatch tier), making every batch call site observable through
// one choke point.  The per-pair Filter() remains as the reference
// implementation and the default FilterBatchImpl fallback; GateKeeper
// (SHD included, as its FPGA configuration), Shouji and SneakySnake
// override FilterBatchImpl with vectorized encoded-domain implementations
// (src/simd/).
#ifndef GKGPU_FILTERS_FILTER_HPP
#define GKGPU_FILTERS_FILTER_HPP

#include <string_view>

#include "filters/pair_block.hpp"

namespace gkgpu {

class PreAlignmentFilter {
 public:
  virtual ~PreAlignmentFilter() = default;

  virtual std::string_view name() const = 0;

  /// Whether the algorithm contracts zero false rejects — it never rejects
  /// a pair whose true edit distance is within the threshold.  The
  /// differential test harness (tests/test_filter_differential.cpp) holds
  /// lossless filters to exactly that; filters returning false (MAGNET and
  /// Shouji, whose window extraction/replacement is known to shed a small
  /// fraction of true positives) are held to a bounded budget instead.
  virtual bool lossless() const { return true; }

  /// Filters one read / candidate-reference-segment pair with error
  /// threshold `e`.  Both sequences must have the same length.  Batch
  /// paths must match it bit for bit on pairs whose block bypass bit is
  /// clear.  GateKeeper's per-pair and batch paths run one kernel, whose
  /// reference is GateKeeperScalar (filters/scalar_ref.hpp).
  virtual FilterResult Filter(std::string_view read, std::string_view ref,
                              int e) const = 0;

  /// Filters every pair of `block` with error threshold `e` into
  /// `results[0..block.size)`.  Contract (shared with the device kernels):
  /// pairs whose block bypass bit is set skip filtration and receive
  /// {accept=1, bypassed=1, edits=0}; every other pair's result equals
  /// Filter() on the pair's decoded sequences.  Non-virtual: records the
  /// batch in the filter funnel (one result scan) and delegates to
  /// FilterBatchImpl.
  void FilterBatch(const PairBlock& block, int e, PairResult* results) const;

 protected:
  /// The actual batch kernel.  The default implementation is a per-pair
  /// loop over Filter(); overriding filters provide real batch kernels
  /// and must preserve the equivalence (asserted by the differential
  /// harness and the scalar-vs-SIMD fuzz test).
  virtual void FilterBatchImpl(const PairBlock& block, int e,
                               PairResult* results) const;
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_FILTER_HPP
