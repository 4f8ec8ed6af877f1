#include "filters/gatekeeper.hpp"

#include <cassert>
#include <memory>

#include "encode/encoded.hpp"
#include "simd/gatekeeper_batch.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {

FilterResult GateKeeperFilter::Filter(std::string_view read,
                                      std::string_view ref, int e) const {
  assert(read.size() == ref.size());
  assert(static_cast<int>(read.size()) <= kMaxReadLength);
  Word read_enc[kMaxEncodedWords];
  Word ref_enc[kMaxEncodedWords];
  const bool read_n = EncodeSequence(read, read_enc);
  const bool ref_n = EncodeSequence(ref, ref_enc);
  if (params_.bypass_undefined && (read_n || ref_n)) {
    // Undefined pair: pass it straight to verification.
    return {true, 0};
  }
  return FilterEncoded(read_enc, ref_enc, static_cast<int>(read.size()), e);
}

void GateKeeperFilter::FilterBatchImpl(const PairBlock& block, int e,
                                   PairResult* results) const {
  simd::GateKeeperFilterRange(block, 0, block.size, e, params_, results);
}

GateKeeperCpu::GateKeeperCpu(GateKeeperParams params, unsigned threads)
    : filter_(params),
      pool_(threads > 1 ? std::make_unique<ThreadPool>(threads, "gkgpu-gkcpu")
                        : nullptr) {}

GateKeeperCpu::~GateKeeperCpu() = default;

unsigned GateKeeperCpu::threads() const {
  return pool_ != nullptr ? pool_->size() : 1;
}

void GateKeeperCpu::FilterBlock(const PairBlock& block, int e,
                                PairResult* results) const {
  const auto run = [&](std::size_t b, std::size_t end) {
    filter_.FilterBatch(SliceBlock(block, b, end), e, results + b);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(0, block.size, 4096, run);
  } else {
    run(0, block.size);
  }
}

}  // namespace gkgpu
