// The streaming drivers' one filter call per chunk: GateKeeper, with the
// engine's parameters and threshold, over a candidates-shape PairBlock
// (the chunk's encoded read table plus its (read, strand, reference
// offset) candidates) whose windows come from the engine's loaded
// reference encoding.  One GateKeeperFilter::FilterBatch per chunk, so the
// filter funnel counts each candidate exactly once.
#ifndef GKGPU_PIPELINE_CHUNK_FILTER_HPP
#define GKGPU_PIPELINE_CHUNK_FILTER_HPP

#include <span>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "filters/gatekeeper.hpp"
#include "mapper/mapper.hpp"
#include "pipeline/ordered_chunks.hpp"

namespace gkgpu::pipeline {

class ChunkFilter {
 public:
  /// A null engine is No Filter: every candidate is accepted.  Otherwise
  /// the engine's reference is loaded from the mapper's genome when it has
  /// none, and std::invalid_argument is thrown unless its read length is
  /// the mapper's and its reference is the mapper's genome (length and
  /// fingerprint: an engine reused across same-length genomes would
  /// otherwise filter against the wrong one).  Both must outlive this.
  ChunkFilter(GateKeeperGpuEngine* engine, const ReadMapper& mapper);

  /// Filters `candidates`, whose read_index points into `table` (each
  /// sequence the mapper's read length), into `results`, observing the
  /// "encode" and "filter" stages once each.
  void Filter(std::span<const std::string_view> table,
              std::span<const CandidatePair> candidates,
              const StageHistograms& stages,
              std::vector<PairResult>* results) const;

 private:
  const GateKeeperGpuEngine* engine_;
  GateKeeperFilter filter_;
  int read_length_;
  int threshold_;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_CHUNK_FILTER_HPP
