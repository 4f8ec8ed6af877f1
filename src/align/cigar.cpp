#include "align/cigar.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "align/banded.hpp"
#include "align/myers.hpp"

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;

// Largest distance the diagonal-transition traceback takes; larger ones
// (and unequal lengths) run BandedAlign.  Its band of floor(d / 2)
// diagonals on each side of the main one is then at most 15 wide.
constexpr int kMaxTraceEdits = 31;
constexpr int kMaxHalfBand = kMaxTraceEdits / 2;
// A table row covers the band plus one unreached diagonal on each side,
// which the recurrence and the traceback read past the band's edges.
constexpr int kTraceWidth = 2 * kMaxHalfBand + 3;
constexpr int kUnreached = -(1 << 30);

#if defined(__SSE2__)
inline unsigned MatchMask16(const char* a, const char* b) {
  const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(x, y)));
}
#endif

/// Length of the common prefix of a[0, n) and b[0, n), 16 bytes at a time
/// while 16 remain (every load stays inside both ranges).
int MatchForward(const char* a, const char* b, int n) {
  int i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= n; i += 16) {
    const unsigned miss = ~MatchMask16(a + i, b + i) & 0xFFFFu;
    if (miss != 0) return i + __builtin_ctz(miss);
  }
#endif
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Length of the common suffix of a[-n, 0) and b[-n, 0).
int MatchBackward(const char* a, const char* b, int n) {
  int i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= n; i += 16) {
    const unsigned miss = ~MatchMask16(a - i - 16, b - i - 16) & 0xFFFFu;
    // Byte 15 of the load is the one nearest the end: count down from it.
    if (miss != 0) return i + __builtin_clz(miss) - 16;
  }
#endif
  while (i < n && a[-1 - i] == b[-1 - i]) ++i;
  return i;
}

/// CigarFor's equal-length path for 0 <= k <= kMaxTraceEdits:
/// BandedAlign(read, ref, k).cigar, or "<m>M" when the distance exceeds k,
/// from a diagonal-transition table instead of the DP matrix.
///
/// Row i of diagonal t is cell (i, i + t).  fr[s][t] is the furthest row
/// of diagonal t whose prefix distance is <= s, for |t| <= h = floor(k /
/// 2) (the recurrence of Ukkonen and Myers' O(ND) algorithm confined to
/// that band: a substitution from fr[s-1][t] + 1, an insertion from
/// fr[s-1][t+1] + 1, a deletion from fr[s-1][t-1], then a slide over
/// matches).  Distances never fall along a diagonal, so the band's
/// distance at row i of diagonal t is the least s with fr[s][t] >= i.
///
/// BandedAlign's traceback walks one optimal path from (m, m), at each
/// cell of distance `cur` taking M when the cell up-left plus the column's
/// cost equals `cur`, else I when the cell above plus one does, else D.
/// Each test reads a cell that lies on an optimal path when it succeeds,
/// and an optimal path of an equal-length pair at distance d never leaves
/// the band |t| <= floor(d / 2) (reaching diagonal t costs |t|, and so
/// does returning).  On such cells the band's distances, BandedAlign's
/// banded ones and the true ones agree; elsewhere a test fails on all
/// three (each is at least the true distance, which already exceeds what
/// the test asks for).  A predecessor's distance is never below `cur`
/// minus its step cost, so each test is fr[cur - cost][t'] >= i - 1, and
/// a match always steps diagonally, so a match run is one jump.
std::string TraceCigar(std::string_view read, std::string_view ref, int k) {
  const int m = static_cast<int>(read.size());
  const int h = k / 2;
  const char* a = read.data();
  const char* b = ref.data();
  std::array<std::array<int, kTraceWidth>, kMaxTraceEdits + 1> fr{};
  constexpr int kMid = kTraceWidth / 2;  // the main diagonal's column
  int distance = -1;
  for (int s = 0; s <= k && distance < 0; ++s) {
    int* reach = fr[static_cast<std::size_t>(s)].data() + kMid;
    const int* prev =
        s > 0 ? fr[static_cast<std::size_t>(s - 1)].data() + kMid : nullptr;
    const int w = std::min(s, h);
    std::fill(reach - h - 1, reach + h + 2, kUnreached);
    for (int t = -w; t <= w; ++t) {
      int row = 0;
      if (prev != nullptr) {
        row = std::max({prev[t] + 1, prev[t + 1] + 1, prev[t - 1]});
      }
      const int end = t > 0 ? m - t : m;  // the diagonal's last row
      row = std::min(row, end);
      reach[t] = row + MatchForward(a + row, b + row + t, end - row);
    }
    if (reach[0] == m) distance = s;
  }
  if (distance < 0) return std::to_string(m) + "M";

  // Walk back from (m, m), collecting runs last to first.
  std::array<char, 2 * kMaxTraceEdits + 1> op{};
  std::array<int, 2 * kMaxTraceEdits + 1> len{};
  std::size_t runs = 0;
  const auto push = [&](char o, int n) {
    if (runs > 0 && op[runs - 1] == o) {
      len[runs - 1] += n;
    } else {
      op[runs] = o;
      len[runs] = n;
      ++runs;
    }
  };
  const auto reaches = [&](int s, int t, int row) {
    const auto& reach = fr[static_cast<std::size_t>(s)];
    return reach[static_cast<std::size_t>(kMid + t)] >= row;
  };
  int i = m;
  int t = 0;
  int cur = distance;
  while (i > 0 || i + t > 0) {
    const int j = i + t;
    const int run =
        i > 0 && j > 0 ? MatchBackward(a + i, b + j, std::min(i, j)) : 0;
    if (run > 0) {
      push('M', run);
      i -= run;
      continue;
    }
    // A mismatch, or the end of one sequence, lies ahead: an edit.
    assert(cur > 0);
    if (i > 0 && j > 0 && reaches(cur - 1, t, i - 1)) {  // substitution
      push('M', 1);
      --i;
      --cur;
      continue;
    }
    if (i > 0 && reaches(cur - 1, t + 1, i - 1)) {
      push('I', 1);
      --i;
      ++t;
    } else {
      push('D', 1);
      --t;
    }
    --cur;
  }
  std::string cigar;
  char digits[16] = {};
  while (runs > 0) {
    --runs;
    char* end = std::to_chars(digits, digits + sizeof(digits), len[runs]).ptr;
    cigar.append(digits, end);
    cigar.push_back(op[runs]);
  }
  return cigar;
}

}  // namespace

std::string CompressCigarOps(const std::string& ops) {
  std::string out;
  std::size_t i = 0;
  while (i < ops.size()) {
    std::size_t j = i;
    while (j < ops.size() && ops[j] == ops[i]) ++j;
    out += std::to_string(j - i);
    out.push_back(ops[i]);
    i = j;
  }
  return out;
}

Alignment BandedAlign(std::string_view read, std::string_view ref, int k) {
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  if (k < 0 || std::abs(m - n) > k) return {};
  const int width = 2 * k + 1;
  // dp[i * width + d] = D[i][i + d - k]; full matrix kept for traceback.
  std::vector<int> dp(static_cast<std::size_t>(m + 1) * width, kInf);
  auto at = [&](int i, int d) -> int& {
    return dp[static_cast<std::size_t>(i) * width + d];
  };
  for (int d = 0; d < width; ++d) {
    const int j = d - k;
    if (j >= 0 && j <= n) at(0, d) = j;
  }
  for (int i = 1; i <= m; ++i) {
    for (int d = 0; d < width; ++d) {
      const int j = i + d - k;
      if (j < 0 || j > n) continue;
      int v = kInf;
      if (j == 0) {
        v = i;
      } else {
        if (d + 1 < width && at(i - 1, d + 1) < kInf) {
          v = std::min(v, at(i - 1, d + 1) + 1);  // I: read base unmatched
        }
        if (d - 1 >= 0 && at(i, d - 1) < kInf) {
          v = std::min(v, at(i, d - 1) + 1);  // D: ref base unmatched
        }
        if (at(i - 1, d) < kInf) {
          const int cost = read[static_cast<std::size_t>(i - 1)] ==
                                   ref[static_cast<std::size_t>(j - 1)]
                               ? 0
                               : 1;
          v = std::min(v, at(i - 1, d) + cost);  // M
        }
      }
      at(i, d) = v;
    }
  }
  const int d_final = n - m + k;
  if (d_final < 0 || d_final >= width || at(m, d_final) > k) return {};

  Alignment result;
  result.distance = at(m, d_final);
  // Traceback from (m, n), preferring M so runs stay long.
  std::string ops;
  int i = m;
  int d = d_final;
  while (i > 0 || i + d - k > 0) {
    const int j = i + d - k;
    const int cur = at(i, d);
    if (i > 0 && j > 0 && at(i - 1, d) < kInf) {
      const int cost = read[static_cast<std::size_t>(i - 1)] ==
                               ref[static_cast<std::size_t>(j - 1)]
                           ? 0
                           : 1;
      if (at(i - 1, d) + cost == cur) {
        ops.push_back('M');
        --i;
        continue;
      }
    }
    if (i > 0 && d + 1 < width && at(i - 1, d + 1) < kInf &&
        at(i - 1, d + 1) + 1 == cur) {
      ops.push_back('I');
      --i;
      ++d;
      continue;
    }
    // Remaining possibility: ref base unmatched.
    ops.push_back('D');
    --d;
  }
  std::reverse(ops.begin(), ops.end());
  result.cigar = CompressCigarOps(ops);
  return result;
}

std::string CigarFor(std::string_view read, std::string_view window,
                     int edits) {
  // Fast path.  Let d = edits be the exact distance, equal lengths L, and
  // H(i) the Hamming distance of the length-i prefixes, with H(L) == d.
  // The diagonal path bounds D[i][i] <= H(i), and extending (i, i) along
  // the diagonal to (L, L) bounds d <= D[i][i] + (H(L) - H(i)), so
  // D[i][i] >= H(i): the diagonal cells hold exactly H(i).  They lie in
  // BandedAlign's band (offset 0 <= k) and its banded values can neither
  // beat the true D nor miss the in-band diagonal path, so they hold H(i)
  // there too.  Its traceback from (L, L) tries M first, and
  // D[i-1][i-1] + cost(i) == H(i) == D[i][i] holds at every step, so it
  // walks the diagonal to (0, 0) and emits L M's: "<L>M", byte for byte.
  // The count is the verifier's own Hamming routine, stopped past `edits`.
  if (!read.empty() && read.size() == window.size() && edits >= 0 &&
      HammingWithin(read, window, edits) == edits) {
    assert(MyersAligner().DistanceWithin(read, window, edits) == edits);
    return std::to_string(read.size()) + "M";
  }
  if (read.size() == window.size() && edits >= 0 && edits <= kMaxTraceEdits) {
    return TraceCigar(read, window, edits);
  }
  const Alignment aln = BandedAlign(read, window, edits);
  return aln.distance >= 0 ? aln.cigar : std::to_string(read.size()) + "M";
}

int CigarEdits(std::string_view read, std::string_view ref,
               const std::string& cigar) {
  std::size_t ri = 0;
  std::size_t gi = 0;
  int edits = 0;
  std::size_t p = 0;
  while (p < cigar.size()) {
    std::size_t q = p;
    while (q < cigar.size() &&
           std::isdigit(static_cast<unsigned char>(cigar[q]))) {
      ++q;
    }
    if (q == p || q >= cigar.size()) return -1;
    const int run = std::atoi(cigar.substr(p, q - p).c_str());
    const char op = cigar[q];
    p = q + 1;
    switch (op) {
      case 'M':
        if (ri + run > read.size() || gi + run > ref.size()) return -1;
        for (int t = 0; t < run; ++t) {
          if (read[ri + t] != ref[gi + t]) ++edits;
        }
        ri += run;
        gi += run;
        break;
      case 'I':
        if (ri + run > read.size()) return -1;
        ri += run;
        edits += run;
        break;
      case 'D':
        if (gi + run > ref.size()) return -1;
        gi += run;
        edits += run;
        break;
      default:
        return -1;
    }
  }
  if (ri != read.size() || gi != ref.size()) return -1;
  return edits;
}

}  // namespace gkgpu
