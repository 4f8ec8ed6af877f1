#include "pipeline/chunk_filter.hpp"

#include "encode/encoded.hpp"
#include "filters/gatekeeper.hpp"

namespace gkgpu::pipeline {

ChunkFilter::ChunkFilter(const PreAlignmentFilter* filter,
                         const ReadMapper& mapper)
    : filter_(filter), mapper_(mapper) {
  if (filter != nullptr) {
    CheckFilterReadLength(mapper.config().read_length, "mapping");
  }
}

void ChunkFilter::Filter(std::span<const std::string_view> table,
                         std::span<const CandidatePair> candidates,
                         const StageHistograms& stages,
                         std::vector<PairResult>* results) const {
  if (filter_ == nullptr) {
    results->assign(candidates.size(), PairResult{1, 0, 0});
    return;
  }
  EncodedBatch encoded;
  {
    const StageTimer timer(stages.encode, "encode");
    encoded = EncodeBatch(table, mapper_.config().read_length);
  }
  const StageTimer timer(stages.filter, "filter");
  results->resize(candidates.size());
  filter_->FilterBatch(CandidateBlock(encoded, mapper_.encoding(),
                                      candidates.data(), candidates.size()),
                       mapper_.config().error_threshold, results->data());
}

const PreAlignmentFilter* EngineShimFilter(bool has_engine) {
  static const GateKeeperFilter gatekeeper;
  return has_engine ? &gatekeeper : nullptr;
}

}  // namespace gkgpu::pipeline
