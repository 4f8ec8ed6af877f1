#include "pipeline/chunk_filter.hpp"

#include <stdexcept>

#include "encode/encoded.hpp"

namespace gkgpu::pipeline {

ChunkFilter::ChunkFilter(GateKeeperGpuEngine* engine, const ReadMapper& mapper)
    : engine_(engine),
      filter_(engine != nullptr ? engine->config().algorithm
                                : GateKeeperParams{}),
      read_length_(mapper.config().read_length),
      threshold_(engine != nullptr ? engine->config().error_threshold : 0) {
  if (engine == nullptr) return;
  if (engine->config().read_length != read_length_) {
    throw std::invalid_argument(
        "mapping: engine read length != mapper read length");
  }
  if (!engine->HasReference()) engine->LoadReference(mapper.genome());
  if (engine->reference_length() != mapper.reference().length() ||
      engine->reference_fingerprint() != mapper.reference().fingerprint()) {
    throw std::invalid_argument(
        "mapping: the engine's reference must be loaded from the mapper's "
        "genome");
  }
}

void ChunkFilter::Filter(std::span<const std::string_view> table,
                         std::span<const CandidatePair> candidates,
                         const StageHistograms& stages,
                         std::vector<PairResult>* results) const {
  if (engine_ == nullptr) {
    results->assign(candidates.size(), PairResult{1, 0, 0});
    return;
  }
  EncodedBatch encoded;
  {
    const StageTimer timer(stages.encode, "encode");
    encoded = EncodeBatch(table, read_length_);
  }
  const StageTimer timer(stages.filter, "filter");
  results->resize(candidates.size());
  filter_.FilterBatch(CandidateBlock(encoded, engine_->reference_encoding(),
                                     candidates.data(), candidates.size()),
                      threshold_, results->data());
}

}  // namespace gkgpu::pipeline
