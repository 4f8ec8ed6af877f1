#include "align/cigar.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdlib>
#include <vector>

#include "align/banded.hpp"
#include "align/myers.hpp"

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;
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
