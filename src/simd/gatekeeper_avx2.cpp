// AVX2 GateKeeper and SneakySnake batch kernels: four filtrations per
// instruction stream.
//
// Layout: lane l of every ymm register holds pair (group_base + l)'s
// 64-bit word w — the mask pipeline's cross-word carries run along the
// word index inside each lane, so shifts, XOR/AND/OR, the 2-bit->1-bit
// reduction and the amendment all vectorize lane-parallel with no
// cross-lane traffic.  Only the final error count leaves the vector
// domain: the finished mask is stored lane-major and each lane is counted
// with the scalar 64-bit run counter.  The SneakySnake kernel builds four
// pairs' neighborhood mazes the same way (NeighborhoodMap::BuildEncoded's
// steps, one pair per lane) and walks each lane's rows with
// SnakeTraverse64.
//
// Shift counts, edge-fix ranges and tail masks are uniform across lanes
// (one block shares length and threshold), so they broadcast as scalar
// 64-bit constants computed once per word.
//
// This file is compiled with -mavx2 when the toolchain supports it
// (GKGPU_SIMD_AVX2); the functions are only reached behind the runtime
// CPUID dispatch in simd/dispatch.cpp.  Without support it degrades to
// the scalar path so the symbol set stays identical.
#include "simd/gatekeeper_batch.hpp"

#include <vector>

#include "simd/bitops64.hpp"
#include "simd/dispatch.hpp"
#include "simd/snake_batch.hpp"

#if defined(GKGPU_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace gkgpu::simd {

#if defined(GKGPU_SIMD_AVX2)

bool Avx2Compiled() { return true; }

namespace {

constexpr int kLanes = 4;

inline __m256i Srl(__m256i v, int n) {
  return _mm256_srl_epi64(v, _mm_cvtsi32_si128(n));
}
inline __m256i Sll(__m256i v, int n) {
  return _mm256_sll_epi64(v, _mm_cvtsi32_si128(n));
}

void VShiftToLater(const __m256i* src, __m256i* dst, int nwords, int bits) {
  const __m256i zero = _mm256_setzero_si256();
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = nwords - 1; i >= 0; --i) {
    const int j = i - word_off;
    __m256i v = zero;
    if (bit_off == 0) {
      if (j >= 0) v = src[j];
    } else {
      if (j >= 0) v = Srl(src[j], bit_off);
      if (j - 1 >= 0) {
        v = _mm256_or_si256(v, Sll(src[j - 1], kWordBits64 - bit_off));
      }
    }
    dst[i] = v;
  }
}

void VShiftToEarlier(const __m256i* src, __m256i* dst, int nwords, int bits) {
  const __m256i zero = _mm256_setzero_si256();
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = 0; i < nwords; ++i) {
    const int j = i + word_off;
    __m256i v = zero;
    if (bit_off == 0) {
      if (j < nwords) v = src[j];
    } else {
      if (j < nwords) v = Sll(src[j], bit_off);
      if (j + 1 < nwords) {
        v = _mm256_or_si256(v, Srl(src[j + 1], kWordBits64 - bit_off));
      }
    }
    dst[i] = v;
  }
}

inline void VXor(const __m256i* a, const __m256i* b, __m256i* dst,
                 int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = _mm256_xor_si256(a[i], b[i]);
}

inline void VAnd(__m256i* dst, const __m256i* src, int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = _mm256_and_si256(dst[i], src[i]);
}

/// CompressPairsOr64, lane-parallel.
inline __m256i VCompress(__m256i w) {
  __m256i t = _mm256_and_si256(_mm256_or_si256(w, _mm256_srli_epi64(w, 1)),
                               _mm256_set1_epi64x(0x5555555555555555LL));
  t = _mm256_and_si256(_mm256_or_si256(t, _mm256_srli_epi64(t, 1)),
                       _mm256_set1_epi64x(0x3333333333333333LL));
  t = _mm256_and_si256(_mm256_or_si256(t, _mm256_srli_epi64(t, 2)),
                       _mm256_set1_epi64x(0x0F0F0F0F0F0F0F0FLL));
  t = _mm256_and_si256(_mm256_or_si256(t, _mm256_srli_epi64(t, 4)),
                       _mm256_set1_epi64x(0x00FF00FF00FF00FFLL));
  t = _mm256_and_si256(_mm256_or_si256(t, _mm256_srli_epi64(t, 8)),
                       _mm256_set1_epi64x(0x0000FFFF0000FFFFLL));
  t = _mm256_and_si256(_mm256_or_si256(t, _mm256_srli_epi64(t, 16)),
                       _mm256_set1_epi64x(0x00000000FFFFFFFFLL));
  return t;
}

/// Zeroes every lane's bits at positions >= length_bits with per-word
/// broadcast constants.
void VZeroTail(__m256i* mask, int nwords, int length_bits) {
  for (int w = 0; w < nwords; ++w) {
    const U64 keep = ~RangeMask64(w, length_bits, nwords * kWordBits64);
    if (keep != ~U64{0}) {
      mask[w] = _mm256_and_si256(mask[w], _mm256_set1_epi64x(
                                              static_cast<long long>(keep)));
    }
  }
}

/// ReducePairsOr64, lane-parallel: 2-bit diff -> 1-bit mask, tail zeroed.
void VReduce(const __m256i* diff, int length, __m256i* mask) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  const __m256i zero = _mm256_setzero_si256();
  for (int m = 0; m < mask64; ++m) {
    const int hi = 2 * m;
    const int lo = 2 * m + 1;
    __m256i w = _mm256_slli_epi64(hi < enc64 ? VCompress(diff[hi]) : zero, 32);
    if (lo < enc64) w = _mm256_or_si256(w, VCompress(diff[lo]));
    mask[m] = w;
  }
  VZeroTail(mask, mask64, length);
}

void VSetRange(__m256i* mask, int nwords, int from, int to) {
  for (int w = 0; w < nwords; ++w) {
    const U64 m = RangeMask64(w, from, to);
    if (m != 0) {
      mask[w] = _mm256_or_si256(mask[w],
                                _mm256_set1_epi64x(static_cast<long long>(m)));
    }
  }
}

/// Fused single-pass amendment (see AmendShortZeroRuns64): the four
/// shifted neighborhoods come from the original current/previous/next
/// words per iteration — no vector scratch arrays, one pass.
void VAmend(__m256i* mask, int nwords) {
  __m256i prev = _mm256_setzero_si256();
  for (int i = 0; i < nwords; ++i) {
    const __m256i cur = mask[i];
    const __m256i next =
        i + 1 < nwords ? mask[i + 1] : _mm256_setzero_si256();
    const __m256i l1 = _mm256_or_si256(_mm256_srli_epi64(cur, 1),
                                       _mm256_slli_epi64(prev, 63));
    const __m256i l2 = _mm256_or_si256(_mm256_srli_epi64(cur, 2),
                                       _mm256_slli_epi64(prev, 62));
    const __m256i r1 = _mm256_or_si256(_mm256_slli_epi64(cur, 1),
                                       _mm256_srli_epi64(next, 63));
    const __m256i r2 = _mm256_or_si256(_mm256_slli_epi64(cur, 2),
                                       _mm256_srli_epi64(next, 62));
    const __m256i amend = _mm256_or_si256(
        _mm256_and_si256(l1, _mm256_or_si256(r1, r2)),
        _mm256_and_si256(l2, r1));
    mask[i] = _mm256_or_si256(cur, amend);
    prev = cur;
  }
}

/// Word `w` of four per-pair arrays, transposed into one register (lane
/// l = pair l).
inline __m256i Lanes(const U64 (*rows)[kMaxWords64], int w) {
  return _mm256_set_epi64x(static_cast<long long>(rows[3][w]),
                           static_cast<long long>(rows[2][w]),
                           static_cast<long long>(rows[1][w]),
                           static_cast<long long>(rows[0][w]));
}

/// Counts each lane of the finished mask with the scalar 64-bit counters.
void CountLanes(const __m256i* mask, int nwords, const GateKeeperParams& p,
                int* errors) {
  alignas(32) U64 out[kMaxWords64 * kLanes];
  for (int w = 0; w < nwords; ++w) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(out + w * kLanes), mask[w]);
  }
  for (int l = 0; l < kLanes; ++l) {
    errors[l] = p.count == CountMode::kPopcount
                    ? PopcountWords64(out + l, nwords, kLanes)
                    : CountOneRuns64(out + l, nwords, kLanes);
  }
}

/// The improved (GateKeeper-GPU) pipeline over one 4-lane group.
void ImprovedGroup(const U64 (*reads)[kMaxWords64],
                   const U64 (*refs)[kMaxWords64], int length, int e,
                   const GateKeeperParams& p, int* errors) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  __m256i R[kMaxWords64], G[kMaxWords64];
  for (int w = 0; w < enc64; ++w) {
    R[w] = Lanes(reads, w);
    G[w] = Lanes(refs, w);
  }
  __m256i diff[kMaxWords64], final_mask[kMaxWords64], mask[kMaxWords64],
      shifted[kMaxWords64];
  VXor(R, G, diff, enc64);
  VReduce(diff, length, final_mask);
  if (e > 0) {
    VAmend(final_mask, mask64);
    for (int k = 1; k <= e; ++k) {
      VShiftToLater(R, shifted, enc64, 2 * k);
      VXor(shifted, G, diff, enc64);
      VReduce(diff, length, mask);
      VAmend(mask, mask64);
      VSetRange(mask, mask64, 0, k);  // leading bits vacated by the deletion
      VAnd(final_mask, mask, mask64);
      VShiftToEarlier(R, shifted, enc64, 2 * k);
      VXor(shifted, G, diff, enc64);
      VReduce(diff, length, mask);
      VAmend(mask, mask64);
      VSetRange(mask, mask64, length - k, length);  // trailing (insertion)
      VAnd(final_mask, mask, mask64);
    }
  }
  CountLanes(final_mask, mask64, p, errors);
}

/// The original (FPGA/SHD) pipeline in the 2-bit mask domain.
void OriginalGroup(const U64 (*reads)[kMaxWords64],
                   const U64 (*refs)[kMaxWords64], int length, int e,
                   const GateKeeperParams& p, int* errors) {
  const int enc64 = Words64(EncodedWords(length));
  __m256i R[kMaxWords64], G[kMaxWords64];
  for (int w = 0; w < enc64; ++w) {
    R[w] = Lanes(reads, w);
    G[w] = Lanes(refs, w);
  }
  __m256i final_mask[kMaxWords64], mask[kMaxWords64], shifted[kMaxWords64];
  VXor(R, G, final_mask, enc64);
  VZeroTail(final_mask, enc64, 2 * length);
  if (e > 0) {
    VAmend(final_mask, enc64);
    for (int k = 1; k <= e; ++k) {
      for (const int shift : {k, -k}) {
        if (shift > 0) {
          VShiftToLater(R, shifted, enc64, 2 * shift);
        } else {
          VShiftToEarlier(R, shifted, enc64, -2 * shift);
        }
        VXor(shifted, G, mask, enc64);
        VZeroTail(mask, enc64, 2 * length);
        VAmend(mask, enc64);
        VAnd(final_mask, mask, enc64);
      }
    }
  }
  CountLanes(final_mask, enc64, p, errors);
}

}  // namespace

void GateKeeperFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                               std::size_t end, int e,
                               const GateKeeperParams& params,
                               PairResult* results) {
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  const int enc32 = EncodedWords(block.length);
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    U64 reads[kLanes][kMaxWords64];
    U64 refs[kLanes][kMaxWords64];
    bool bypass[kLanes];
    bool all_bypass = true;
    for (int l = 0; l < kLanes; ++l) {
      const BlockPairView v =
          LoadBlockPair(block, i + static_cast<std::size_t>(l), read_scratch,
                        ref_scratch);
      bypass[l] = v.bypass;
      all_bypass = all_bypass && bypass[l];
      PackWords64(v.read, enc32, reads[l]);
      PackWords64(v.ref, enc32, refs[l]);
    }
    if (all_bypass) {
      for (int l = 0; l < kLanes; ++l) {
        results[i + static_cast<std::size_t>(l)] = BypassedPairResult();
      }
      continue;
    }
    int errors[kLanes];
    if (params.mode == GateKeeperMode::kOriginal) {
      OriginalGroup(reads, refs, block.length, e, params, errors);
    } else {
      ImprovedGroup(reads, refs, block.length, e, params, errors);
    }
    for (int l = 0; l < kLanes; ++l) {
      results[i + static_cast<std::size_t>(l)] =
          bypass[l] ? BypassedPairResult()
                    : MakePairResult({errors[l] <= e, errors[l]}, false);
    }
  }
  if (i < end) {
    GateKeeperFilterRangeScalar(block, i, end, e, params, results);
  }
}

void SneakySnakeFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                                std::size_t end, int e, PairResult* results) {
  const int length = block.length;
  const int enc32 = EncodedWords(length);
  const int enc64 = Words64(enc32);
  const int mask64 = Words64(MaskWords(length));
  const int ndiag = 2 * e + 1;
  // Lane-major maze: diagonal d's word w for lane l sits at
  // rows[((d + e) * mask64 + w) * kLanes + l].
  std::vector<U64> rows(static_cast<std::size_t>(ndiag) *
                        static_cast<std::size_t>(mask64) * kLanes);
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    U64 reads[kLanes][kMaxWords64];
    U64 refs[kLanes][kMaxWords64];
    bool bypass[kLanes];
    bool all_bypass = true;
    for (int l = 0; l < kLanes; ++l) {
      const BlockPairView v =
          LoadBlockPair(block, i + static_cast<std::size_t>(l), read_scratch,
                        ref_scratch);
      bypass[l] = v.bypass;
      all_bypass = all_bypass && bypass[l];
      PackWords64(v.read, enc32, reads[l]);
      PackWords64(v.ref, enc32, refs[l]);
    }
    if (all_bypass) {
      for (int l = 0; l < kLanes; ++l) {
        results[i + static_cast<std::size_t>(l)] = BypassedPairResult();
      }
      continue;
    }
    __m256i R[kMaxWords64], G[kMaxWords64], shifted[kMaxWords64],
        diff[kMaxWords64], row[kMaxWords64];
    for (int w = 0; w < enc64; ++w) {
      R[w] = Lanes(reads, w);
      G[w] = Lanes(refs, w);
    }
    for (int d = -e; d <= e; ++d) {
      // NeighborhoodMap::BuildEncoded, one pair per lane: shift the
      // *reference* by the diagonal offset, XOR, reduce, fence out-of-range
      // columns; the row is stored lane-major.
      const __m256i* rhs = G;
      if (d > 0) {
        VShiftToEarlier(G, shifted, enc64, 2 * d);
        rhs = shifted;
      } else if (d < 0) {
        VShiftToLater(G, shifted, enc64, -2 * d);
        rhs = shifted;
      }
      VXor(R, rhs, diff, enc64);
      VReduce(diff, length, row);
      if (d > 0) {
        VSetRange(row, mask64, std::max(0, length - d), length);
      } else if (d < 0) {
        VSetRange(row, mask64, 0, std::min(length, -d));
      }
      U64* lane_rows = rows.data() + static_cast<std::size_t>(d + e) *
                                         static_cast<std::size_t>(mask64) *
                                         kLanes;
      for (int w = 0; w < mask64; ++w) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(lane_rows + w * kLanes), row[w]);
      }
    }
    for (int l = 0; l < kLanes; ++l) {
      results[i + static_cast<std::size_t>(l)] =
          bypass[l]
              ? BypassedPairResult()
              : MakePairResult(SnakeTraverse64(rows.data() + l, mask64,
                                               length, e, kLanes),
                               false);
    }
  }
  if (i < end) {
    SneakySnakeFilterRangeScalar(block, i, end, e, results);
  }
}

#else  // !GKGPU_SIMD_AVX2

bool Avx2Compiled() { return false; }

void GateKeeperFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                               std::size_t end, int e,
                               const GateKeeperParams& params,
                               PairResult* results) {
  GateKeeperFilterRangeScalar(block, begin, end, e, params, results);
}

void SneakySnakeFilterRangeAvx2(const PairBlock& block, std::size_t begin,
                                std::size_t end, int e, PairResult* results) {
  SneakySnakeFilterRangeScalar(block, begin, end, e, results);
}

#endif  // GKGPU_SIMD_AVX2

}  // namespace gkgpu::simd
