#include "simd/snake_batch.hpp"

#include <vector>

#include "simd/dispatch.hpp"
#include "simd/gatekeeper_batch.hpp"

namespace gkgpu::simd {

namespace {

/// Builds diagonal `d`'s mismatch row from packed 64-bit read/ref lanes —
/// NeighborhoodMap::BuildEncoded, one word width up: shift the *reference*
/// by d bases so column j compares read[j] with ref[j + d], reduce the
/// 2-bit difference to one bit per base, and mark columns whose reference
/// index falls outside [0, length) as mismatches (the shifted-in zero bits
/// would otherwise compare as 'A').
void BuildDiagonal64(const U64* read, const U64* ref, int length, int d,
                     U64* row) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  U64 shifted[kMaxWords64];
  U64 diff[kMaxWords64];
  const U64* rhs = ref;
  if (d > 0) {
    ShiftToEarlier64(ref, shifted, enc64, 2 * d);
    rhs = shifted;
  } else if (d < 0) {
    ShiftToLater64(ref, shifted, enc64, -2 * d);
    rhs = shifted;
  }
  XorWords64(read, rhs, diff, enc64);
  ReducePairsOr64(diff, length, row);
  if (d > 0) {
    SetBitRange64(row, mask64, std::max(0, length - d), length);
  } else if (d < 0) {
    SetBitRange64(row, mask64, 0, std::min(length, -d));
  }
}

}  // namespace

void SneakySnakeFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                  std::size_t end, int e,
                                  PairResult* results) {
  const int length = block.length;
  const int enc32 = EncodedWords(length);
  const int mask64 = Words64(MaskWords(length));
  const int ndiag = 2 * e + 1;
  std::vector<U64> rows(static_cast<std::size_t>(ndiag) *
                        static_cast<std::size_t>(mask64));
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  for (std::size_t i = begin; i < end; ++i) {
    const BlockPairView p = LoadBlockPair(block, i, read_scratch, ref_scratch);
    if (p.bypass) {
      results[i] = BypassedPairResult();
      continue;
    }
    U64 read[kMaxWords64];
    U64 ref[kMaxWords64];
    PackWords64(p.read, enc32, read);
    PackWords64(p.ref, enc32, ref);
    for (int d = -e; d <= e; ++d) {
      BuildDiagonal64(read, ref, length, d,
                      rows.data() + static_cast<std::size_t>(d + e) *
                                        static_cast<std::size_t>(mask64));
    }
    results[i] =
        MakePairResult(SnakeTraverse64(rows.data(), mask64, length, e), false);
  }
}

void SneakySnakeFilterRange(const PairBlock& block, std::size_t begin,
                            std::size_t end, int e, PairResult* results) {
  if (ActiveLevel() != Level::kScalar) {
    SneakySnakeFilterRangeAvx2(block, begin, end, e, results);
  } else {
    SneakySnakeFilterRangeScalar(block, begin, end, e, results);
  }
}

}  // namespace gkgpu::simd
