#include "align/local.hpp"

#include <algorithm>

#include "align/cigar.hpp"

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;
}  // namespace

LocalAlignment LocalAligner::BestFit(std::string_view read,
                                     std::string_view ref, int max_edits,
                                     std::int64_t max_begin) {
  if (max_edits < 0) return {};
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  const std::size_t rows = static_cast<std::size_t>(m) + 1;
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  // The matrix is never cleared: each row is written over its computed
  // columns plus a kInf sentinel after them, which is all the next row
  // reads, and the answer scan and the traceback read only inside each
  // row's live span, so stale values from a previous call are
  // unreachable.
  if (dp_.size() < rows * stride) dp_.resize(rows * stride);
  if (live_.size() < rows) live_.resize(rows);
  auto at = [&](int i, int j) -> int& {
    return dp_[static_cast<std::size_t>(i) * stride +
               static_cast<std::size_t>(j)];
  };
  // A cell outside its row's live span holds more than max_edits.
  const auto value = [&](int i, int j) {
    const auto [lo, hi] = live_[static_cast<std::size_t>(i)];
    return j < lo || j > hi ? kInf : at(i, j);
  };

  // Row 0 is free up to max_begin: a placement may start before any
  // admissible reference base, but never past the bound.
  const int begin_limit =
      max_begin < 0
          ? n
          : static_cast<int>(std::min<std::int64_t>(n, max_begin));
  for (int j = 0; j <= begin_limit; ++j) at(0, j) = 0;
  if (begin_limit < n) at(0, begin_limit + 1) = kInf;
  live_[0] = {0, begin_limit};
  // Live band: a cell can hold a value <= max_edits only if one of its
  // predecessors does, so row i computes the previous row's live span
  // [lo, hi] plus one column (the diagonal and vertical moves), then
  // continues rightwards only while a deletion chain stays within budget
  // (past hi + 1 no other move is live).  Cells past the budget can never
  // recover (costs are nonnegative), so they are poisoned to kInf, and a
  // row with no live cell ends the search.  No row reads left of what the
  // previous one computed: horizontal neighbours differ by at most one,
  // so a leftmost live cell past column 0 holds exactly max_edits, the
  // cell below it is dead, and the live span's start moves right.
  for (int i = 1; i <= m; ++i) {
    const auto [lo, hi] = live_[static_cast<std::size_t>(i - 1)];
    const int* up = &at(i - 1, 0);
    int* row = &at(i, 0);
    const char base = read[static_cast<std::size_t>(i - 1)];
    int new_lo = -1;
    int new_hi = -1;
    int j = lo;
    int left = kInf;  // row[j - 1], dead left of the live span
    if (j == 0) {
      left = up[0] + 1;  // column 0: only the vertical move
      if (left > max_edits) {
        left = kInf;
      } else {
        new_lo = new_hi = 0;
      }
      row[0] = left;
      j = 1;
    }
    for (const int last = std::min(n, hi + 1); j <= last; ++j) {
      const int cost = base == ref[static_cast<std::size_t>(j - 1)] ? 0 : 1;
      int v = std::min({up[j - 1] + cost, up[j] + 1, left + 1});
      if (v > max_edits) {
        v = kInf;
      } else {
        if (new_lo < 0) new_lo = j;
        new_hi = j;
      }
      row[j] = left = v;
    }
    for (; j <= n && left < max_edits; ++j) {
      row[j] = ++left;
      new_hi = j;
    }
    if (j <= n) row[j] = kInf;  // upper sentinel
    if (new_lo < 0) return {};  // nothing within budget reaches row i
    live_[static_cast<std::size_t>(i)] = {new_lo, new_hi};
  }

  // Free end: the placement may stop before the window does.  Smallest
  // final column on ties -> the leftmost-ending placement, deterministic.
  const auto [final_lo, final_hi] = live_[static_cast<std::size_t>(m)];
  int best_j = -1;
  int best = kInf;
  for (int j = final_lo; j <= final_hi; ++j) {
    if (at(m, j) < best) {
      best = at(m, j);
      best_j = j;
    }
  }

  LocalAlignment result;
  result.edits = best;
  // Placement multiplicity: cluster tied end columns — ends within
  // max_edits of each other are variants of one placement (shifting an
  // end by one column costs an edit), farther apart they are distinct
  // loci of a repeat.
  int last_tied = -1;
  for (int j = final_lo; j <= final_hi; ++j) {
    if (at(m, j) != best) continue;
    if (last_tied < 0 || j - last_tied > std::max(1, max_edits)) {
      ++result.placements;
    }
    last_tied = j;
  }
  // Traceback to row 0, preferring M so runs stay long; the row-0 column
  // reached is the placement's first reference base.
  std::string ops;
  int i = m;
  int j = best_j;
  while (i > 0) {
    const int cur = at(i, j);
    if (j > 0) {
      const int cost = read[static_cast<std::size_t>(i - 1)] ==
                               ref[static_cast<std::size_t>(j - 1)]
                           ? 0
                           : 1;
      if (value(i - 1, j - 1) + cost == cur) {
        ops.push_back('M');
        --i;
        --j;
        continue;
      }
    }
    if (value(i - 1, j) + 1 == cur) {
      ops.push_back('I');
      --i;
      continue;
    }
    // Remaining possibility: a reference base inside the placement is
    // unmatched.
    ops.push_back('D');
    --j;
  }
  std::reverse(ops.begin(), ops.end());
  result.ref_begin = j;
  result.ref_span = best_j - j;
  result.cigar = CompressCigarOps(ops);
  return result;
}

}  // namespace gkgpu
