#include "filters/filter.hpp"

#include <cstring>
#include <string>

#include "obs/names.hpp"
#include "simd/dispatch.hpp"

namespace gkgpu {

void PreAlignmentFilter::FilterBatch(const PairBlock& block, int e,
                                     PairResult* results) const {
  FilterBatchImpl(block, e, results);
  if (!obs::Enabled() || block.size == 0) return;
  // One pass over the verdicts, then four batch-granular counter bumps.
  // The tally is the only per-pair cost of the funnel, so it reads each
  // 4-byte PairResult as one word and lane-extracts the two flag bytes —
  // a form the compiler vectorizes, keeping the bench's <= 2% overhead
  // gate honest on the fastest kernels.  Little-endian lane order, like
  // the encoded-word layout the SIMD kernels already assume.
  static_assert(sizeof(PairResult) == 4 &&
                    offsetof(PairResult, accept) == 0 &&
                    offsetof(PairResult, bypassed) == 1,
                "the funnel tally assumes the PairResult flag layout");
  std::uint64_t accepts = 0;
  std::uint64_t bypasses = 0;
  for (std::size_t i = 0; i < block.size; ++i) {
    std::uint32_t w;
    std::memcpy(&w, &results[i], sizeof(w));
    accepts += w & 0xFFu;
    bypasses += (w >> 8) & 0xFFu;
  }
  const std::string filter(name());
  const std::string tier = simd::LevelName(simd::ActiveLevel());
  obs::FilterInput().Inc(block.size);
  obs::FilterAccepts(filter, tier).Inc(accepts);
  obs::FilterRejects(filter, tier).Inc(block.size - accepts);
  if (bypasses > 0) obs::FilterBypasses(filter, tier).Inc(bypasses);
}

void PreAlignmentFilter::FilterBatchImpl(const PairBlock& block, int e,
                                         PairResult* results) const {
  // Reference fallback: materialize each pair back into character space and
  // run the per-pair scalar filtration.  Overriding filters keep the same
  // observable behaviour while staying in the encoded domain.
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  std::string read_str(static_cast<std::size_t>(block.length), 'A');
  std::string ref_str(static_cast<std::size_t>(block.length), 'A');
  for (std::size_t i = 0; i < block.size; ++i) {
    const BlockPairView p = LoadBlockPair(block, i, read_scratch, ref_scratch);
    if (p.bypass) {
      results[i] = BypassedPairResult();
      continue;
    }
    for (int j = 0; j < block.length; ++j) {
      read_str[static_cast<std::size_t>(j)] =
          CodeToBase(GetBase2Bit(p.read, j));
      ref_str[static_cast<std::size_t>(j)] = CodeToBase(GetBase2Bit(p.ref, j));
    }
    results[i] = MakePairResult(Filter(read_str, ref_str, e), false);
  }
}

}  // namespace gkgpu
