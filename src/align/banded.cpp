#include "align/banded.hpp"

#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace gkgpu {

namespace {

#if defined(__SSE2__)
inline __m128i Load16(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Largest budget the band kernel takes: its band of 2 * floor(k / 2) + 1
// <= 31 rows fits two 16-byte compares.  Larger budgets run Myers.
constexpr int kMaxBandBudget = 31;
// The band kernel's copy of the pattern: the first column's top row reads
// floor(k / 2) bytes before a[0], and the last column's widest match-mask
// load (two 16-byte compares from its top row) reads up to 32 bytes from
// there.
constexpr std::size_t kPadBefore = kMaxBandBudget / 2 + 1;
constexpr std::size_t kPadAfter = 32;

/// Edit distance of a and b (equal lengths, `a` padded as above) if it is
/// <= k, else -1: Hyyro's diagonal-band bit-vector kernel over the band of
/// half-width h = floor(k / 2).  kChunks is the number of 16-byte compares
/// that cover the band's 2h + 1 rows.
///
/// An equal-length pair within k edits never leaves that band: a path
/// through diagonal d costs at least |d| to reach it and |d| to return to
/// the corner.  Column j's word holds rows j - h .. j + h (bit r is row
/// j - h + r, bit h the main diagonal), one row lower than column j - 1's:
/// the top row's vertical delta drops out and the new bottom row enters
/// with delta +1, an upper bound on the true one.  So every cell computed
/// is at least its edit distance and at most its value in a DP confined
/// to the band, which is exact at the corner.  Rows above row 0 are
/// virtual, with D[i][j] = j - i: that satisfies the recurrence whatever
/// the match bit, so the first h columns need no special case, and neither
/// those rows' padding bytes nor the ones below row m (which feed no row
/// above them) need masking.  Bits above the band are never read.  The
/// main diagonal never decreases, so the scan stops at the first column
/// where it passes k.
template <int kChunks>
int BandScan(const char* a, std::string_view b, int k) {
  const int h = k / 2;
  const std::uint64_t bottom = std::uint64_t{1} << (2 * h);
  // pv/mv enter column j holding column j - 1's vertical deltas on column
  // j's rows.  Column 0 holds D[i][0] = |i|: delta -1 on rows 1 - h..0,
  // +1 below.
  std::uint64_t mv = (std::uint64_t{1} << h) - 1;
  std::uint64_t pv = ~mv;
  const std::uint64_t diagonal = std::uint64_t{1} << h;  // its row's bit
  const std::uint64_t limit = static_cast<std::uint64_t>(k) << h;
  std::uint64_t score = 0;  // D[j][j] << h
  const char* top = a - h;  // pattern byte of bit 0 in column 1
  for (const char c : b) {
    const __m128i text = _mm_set1_epi8(c);
    std::uint64_t eq = 0;
    for (int t = 0; t < kChunks; ++t) {
      const auto hits = static_cast<std::uint32_t>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(Load16(top + 16 * t), text)));
      eq |= std::uint64_t{hits} << (16 * t);
    }
    ++top;
    // Myers' column step, as MyersAligner's Advance with +1 entering above.
    const std::uint64_t xv = eq | mv;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    const std::uint64_t ph = mv | ~(xh | pv);
    const std::uint64_t mh = pv & xh;
    // D[j][j] - D[j-1][j-1], the last column's vertical delta plus this
    // column's horizontal delta on the diagonal's row, is 0 or 1: 1 when
    // one of them is +1 and neither is -1.
    score += (pv ^ ph) & ~(mv | mh) & diagonal;
    // The new vertical deltas, written straight onto the next column's
    // rows (bit r takes row r + 1): where Advance shifts ph and mh down a
    // row, xv moves up one instead.
    const std::uint64_t xv_next = xv >> 1;
    pv = (mh | ~(ph | xv_next)) | bottom;
    mv = ph & xv_next & ~bottom;
    if (score > limit) return -1;
  }
  return static_cast<int>(score >> h);
}
#endif

}  // namespace

int BandedEditDistance(std::string_view a, std::string_view b, int k) {
  // One kernel per thread: one-shot callers (blocking MapReads, the
  // accuracy harnesses) skip the pattern-table allocation per call.
  thread_local MyersAligner kernel;
  return kernel.DistanceWithin(a, b, k);
}

int HammingWithin(std::string_view a, std::string_view b, int limit) {
  const std::size_t n = a.size();
  int h = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128i one = _mm_set1_epi8(1);
  for (; i + 16 <= n && h <= limit; i += 16) {
    const __m128i same =
        _mm_cmpeq_epi8(Load16(a.data() + i), Load16(b.data() + i));
    // One per mismatching byte, summed per 8-byte half.
    const __m128i sums =
        _mm_sad_epu8(_mm_andnot_si128(same, one), _mm_setzero_si128());
    h += _mm_cvtsi128_si32(sums) + _mm_extract_epi16(sums, 4);
  }
#endif
  for (; i < n && h <= limit; ++i) h += a[i] != b[i] ? 1 : 0;
  return h;
}

int BandedVerifier::Distance(std::string_view a, std::string_view b, int k) {
  if (a.size() == b.size()) {
    // Equal lengths: the distance is at most the Hamming distance H, 0 only
    // when H is, and a single edit that keeps the length is a
    // substitution, so H <= 2 is the distance.
    const int hamming = HammingWithin(a, b, 2);
    if (hamming <= 2) return hamming <= k ? hamming : -1;
#if defined(__SSE2__)
    if (k >= 0 && k <= kMaxBandBudget) {
      const std::size_t need = kPadBefore + a.size() + kPadAfter;
      if (padded_.size() < need) padded_.resize(need);
      std::memcpy(padded_.data() + kPadBefore, a.data(), a.size());
      const char* p = padded_.data() + kPadBefore;
      return k <= 15 ? BandScan<1>(p, b, k) : BandScan<2>(p, b, k);
    }
#endif
  }
  return kernel_.DistanceWithin(a, b, k);
}

}  // namespace gkgpu
