#include "simd/gatekeeper_batch.hpp"

#include "simd/bitops64.hpp"
#include "simd/dispatch.hpp"

namespace gkgpu::simd {

namespace {

int Count64(const U64* mask, int nwords, const GateKeeperParams& p) {
  if (p.count == CountMode::kPopcount) return PopcountWords64(mask, nwords);
  return CountOneRuns64(mask, nwords);
}

/// ANDs into `final_mask` the reduced, amended, edge-fixed difference
/// mask of `read` shifted by `shift` bases (positive = toward later
/// positions, a deletion; negative = an insertion) against `ref`.  Only
/// called with shift != 0 from the improved pipeline, so the edge fix is
/// unconditional.
void AndMask64(const U64* read, const U64* ref, int length, int shift,
               U64* final_mask) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  // Scratch is fully overwritten by the shift/reduce below —
  // zero-initializing it was measurable overhead in the per-pair profile.
  U64 shifted[kMaxWords64];
  U64 mask[kMaxWords64];
  if (shift > 0) {
    ShiftToLater64(read, shifted, enc64, 2 * shift);
  } else {
    ShiftToEarlier64(read, shifted, enc64, -2 * shift);
  }
  ReducePairsOr64(shifted, ref, length, mask);
  AmendShortZeroRuns64(mask, mask64);
  if (shift > 0) {
    SetBitRange64(mask, mask64, 0, shift);
  } else {
    SetBitRange64(mask, mask64, length + shift, length);
  }
  for (int w = 0; w < mask64; ++w) final_mask[w] &= mask[w];
}

/// The original pipeline's AndMask64: the 2-bit-domain difference mask of
/// `read` shifted by `shift` != 0 bases against `ref`, amended, with no
/// edge fix, ANDed into `final_mask`.
void AndMask2Bit64(const U64* read, const U64* ref, int length, int shift,
                   U64* final_mask) {
  const int enc64 = Words64(EncodedWords(length));
  U64 shifted[kMaxWords64];
  U64 mask[kMaxWords64];
  if (shift > 0) {
    ShiftToLater64(read, shifted, enc64, 2 * shift);
  } else {
    ShiftToEarlier64(read, shifted, enc64, -2 * shift);
  }
  XorWords64(shifted, ref, mask, enc64);
  ZeroTailBits64(mask, enc64, 2 * length);
  AmendShortZeroRuns64(mask, enc64);
  for (int w = 0; w < enc64; ++w) final_mask[w] &= mask[w];
}

FilterResult FiltrationOriginal64(const U64* read, const U64* ref, int length,
                                  int e, const GateKeeperParams& p) {
  const int enc64 = Words64(EncodedWords(length));
  U64 final_mask[kMaxWords64];
  XorWords64(read, ref, final_mask, enc64);
  ZeroTailBits64(final_mask, enc64, 2 * length);
  if (e == 0) {
    const int errors = Count64(final_mask, enc64, p);
    return {errors == 0, errors};
  }
  AmendShortZeroRuns64(final_mask, enc64);
  for (int k = 1; k <= e; ++k) {
    AndMask2Bit64(read, ref, length, k, final_mask);
    AndMask2Bit64(read, ref, length, -k, final_mask);
  }
  const int errors = Count64(final_mask, enc64, p);
  return {errors <= e, errors};
}

}  // namespace

FilterResult GateKeeperFiltration64(const Word* read_enc, const Word* ref_enc,
                                    int length, int e,
                                    const GateKeeperParams& params) {
  const int enc32 = EncodedWords(length);
  U64 read[kMaxWords64];
  U64 ref[kMaxWords64];
  PackWords64(read_enc, enc32, read);
  PackWords64(ref_enc, enc32, ref);
  if (params.mode == GateKeeperMode::kOriginal) {
    return FiltrationOriginal64(read, ref, length, e, params);
  }
  const int mask64 = Words64(MaskWords(length));
  U64 final_mask[kMaxWords64];
  ReducePairsOr64(read, ref, length, final_mask);
  if (e == 0) {
    const int errors = Count64(final_mask, mask64, params);
    return {errors == 0, errors};
  }
  AmendShortZeroRuns64(final_mask, mask64);
  for (int k = 1; k <= e; ++k) {
    AndMask64(read, ref, length, k, final_mask);
    AndMask64(read, ref, length, -k, final_mask);
  }
  const int errors = Count64(final_mask, mask64, params);
  return {errors <= e, errors};
}

void GateKeeperFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                 std::size_t end, int e,
                                 const GateKeeperParams& params,
                                 PairResult* results) {
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  for (std::size_t i = begin; i < end; ++i) {
    const BlockPairView p = LoadBlockPair(block, i, read_scratch, ref_scratch);
    if (p.bypass) {
      results[i] = BypassedPairResult();
      continue;
    }
    results[i] = MakePairResult(
        GateKeeperFiltration64(p.read, p.ref, block.length, e, params), false);
  }
}

void GateKeeperFilterRange(const PairBlock& block, std::size_t begin,
                           std::size_t end, int e,
                           const GateKeeperParams& params,
                           PairResult* results) {
  if (ActiveLevel() == Level::kAvx2) {
    GateKeeperFilterRangeAvx2(block, begin, end, e, params, results);
  } else {
    GateKeeperFilterRangeScalar(block, begin, end, e, params, results);
  }
}

}  // namespace gkgpu::simd
