#include "filters/shd.hpp"

#include <cassert>

#include "encode/encoded.hpp"
#include "filters/gatekeeper_core.hpp"
#include "simd/gatekeeper_batch.hpp"

namespace gkgpu {

namespace {

GateKeeperParams ShdParams() {
  // SHD materializes every mask before the AND (it is SIMD-parallel across
  // masks); functionally this is the original GateKeeper data flow, which
  // the shared kernel reproduces with kOriginal mode.
  GateKeeperParams params;
  params.mode = GateKeeperMode::kOriginal;
  params.count = CountMode::kOneRuns;
  return params;
}

}  // namespace

FilterResult ShdFilter::Filter(std::string_view read, std::string_view ref,
                               int e) const {
  assert(read.size() == ref.size());
  Word read_enc[kMaxEncodedWords];
  Word ref_enc[kMaxEncodedWords];
  EncodeSequence(read, read_enc);
  EncodeSequence(ref, ref_enc);
  return simd::GateKeeperFiltration64(read_enc, ref_enc,
                                      static_cast<int>(read.size()), e,
                                      ShdParams());
}

void ShdFilter::FilterBatchImpl(const PairBlock& block, int e,
                            PairResult* results) const {
  simd::GateKeeperFilterRange(block, 0, block.size, e, ShdParams(), results);
}

}  // namespace gkgpu
