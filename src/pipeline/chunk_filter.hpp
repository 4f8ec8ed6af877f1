// The streaming drivers' one filter call per chunk: a host
// PreAlignmentFilter, at the mapper's error threshold, over a
// candidates-shape PairBlock (the chunk's encoded read table plus its
// (read, strand, reference offset) candidates) whose windows come from the
// mapper's reference encoding.  One FilterBatch per chunk, so the filter
// funnel counts each candidate exactly once.
#ifndef GKGPU_PIPELINE_CHUNK_FILTER_HPP
#define GKGPU_PIPELINE_CHUNK_FILTER_HPP

#include <span>
#include <string_view>
#include <vector>

#include "filters/filter.hpp"
#include "mapper/mapper.hpp"
#include "pipeline/ordered_chunks.hpp"

namespace gkgpu::pipeline {

class ChunkFilter {
 public:
  /// A null filter is No Filter: every candidate is accepted.  Otherwise
  /// throws std::invalid_argument when the mapper's read length is outside
  /// the filter kernels' capacity (CheckFilterReadLength), so a driver
  /// fails before it writes any SAM.  Both must outlive this.
  ChunkFilter(const PreAlignmentFilter* filter, const ReadMapper& mapper);

  /// Filters `candidates`, whose read_index points into `table` (each
  /// sequence the mapper's read length), into `results`, observing the
  /// "encode" and "filter" stages once each.
  void Filter(std::span<const std::string_view> table,
              std::span<const CandidatePair> candidates,
              const StageHistograms& stages,
              std::vector<PairResult>* results) const;

 private:
  const PreAlignmentFilter* filter_;
  const ReadMapper& mapper_;
};

/// bench/e2e only: the filter of the engine-pointer overloads of
/// StreamFastqToSam, StreamPairedFastqToSam and MapServer — a default
/// GateKeeperFilter (what the CLI passes) when given an engine, else null.
const PreAlignmentFilter* EngineShimFilter(bool has_engine);

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_CHUNK_FILTER_HPP
