#include "align/myers.hpp"

#include <algorithm>
#include <cstdlib>

namespace gkgpu {

namespace {
constexpr int kAlphabet = 256;
constexpr int kW = 64;

/// Horizontal delta leaving (or entering) a block's boundary row as two
/// 0/1 bits: p = +1, m = -1, both clear = 0.
struct Carry {
  std::uint64_t p;
  std::uint64_t m;
};

/// One column step of one 64-row block (Hyyrö's Advance_Block, written
/// branch-free): updates the block's vertical deltas from the text
/// symbol's match mask `eq` and the delta `in` entering its top row, and
/// returns the delta leaving row `hi` (63, or the pattern's last row in
/// the final block).
inline Carry Advance(std::uint64_t& pv, std::uint64_t& mv, std::uint64_t eq,
                     Carry in, int hi) {
  const std::uint64_t xv = eq | mv;
  eq |= in.m;
  const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  std::uint64_t ph = mv | ~(xh | pv);
  std::uint64_t mh = pv & xh;
  const Carry out{(ph >> hi) & 1, (mh >> hi) & 1};
  ph = (ph << 1) | in.p;
  mh = (mh << 1) | in.m;
  pv = mh | ~(xv | ph);
  mv = ph & xv;
  return out;
}
}  // namespace

template <int kWords>
int MyersAligner::Scan(int m, std::string_view b, int k) {
  const int nb = kWords > 0 ? kWords : (m + kW - 1) / kW;
  const std::size_t stride = static_cast<std::size_t>(nb);
  Block fixed[kWords > 0 ? kWords : 1];
  if constexpr (kWords == 0) blocks_.resize(stride);
  Block* blocks = kWords > 0 ? fixed : blocks_.data();
  for (int bi = 0; bi < nb; ++bi) blocks[bi] = Block{~std::uint64_t{0}, 0};
  const int last_hi = (m - 1) % kW;
  const int n = static_cast<int>(b.size());
  int score = m;  // D[m][0]
  for (int j = 0; j < n; ++j) {
    const auto c = static_cast<unsigned char>(b[static_cast<std::size_t>(j)]);
    const std::uint64_t* eq = peq_.data() + c * stride;
    Carry h{1, 0};  // D[0][j] = j boundary: +1 enters the top block
    for (int bi = 0; bi < nb; ++bi) {
      h = Advance(blocks[bi].pv, blocks[bi].mv, eq[bi], h,
                  bi == nb - 1 ? last_hi : kW - 1);
    }
    score += static_cast<int>(h.p) - static_cast<int>(h.m);  // D[m][j+1]
    // The last row changes by at most 1 per column, so D[m][n] >=
    // D[m][j+1] - (n - j - 1): past k no remaining column can recover.
    if (score - (n - 1 - j) > k) return -1;
  }
  return score <= k ? score : -1;
}

int MyersAligner::DistanceWithin(std::string_view a, std::string_view b,
                                 int k) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (k < 0 || std::abs(m - n) > k) return -1;
  if (m == 0 || n == 0) return std::max(m, n);
  const int nblocks = (m + kW - 1) / kW;
  const std::size_t stride = static_cast<std::size_t>(nblocks);
  // Growing keeps the all-zero invariant: existing entries are zero and
  // resize zero-fills the rest, whatever stride the last call used.
  if (peq_.size() < kAlphabet * stride) peq_.resize(kAlphabet * stride, 0);
  const auto entry = [&](int i) -> std::uint64_t& {
    const auto c = static_cast<unsigned char>(a[static_cast<std::size_t>(i)]);
    return peq_[c * stride + static_cast<std::size_t>(i / kW)];
  };
  for (int i = 0; i < m; ++i) entry(i) |= std::uint64_t{1} << (i % kW);
  const int d = nblocks == 1   ? Scan<1>(m, b, k)
                : nblocks == 2 ? Scan<2>(m, b, k)
                               : Scan<0>(m, b, k);
  for (int i = 0; i < m; ++i) entry(i) = 0;
  return d;
}

int MyersAligner::Distance(std::string_view a, std::string_view b) {
  // Global distance never exceeds the longer length, so this bound never
  // rejects and never stops early.
  return DistanceWithin(a, b, static_cast<int>(std::max(a.size(), b.size())));
}

int MyersEditDistance(std::string_view a, std::string_view b) {
  MyersAligner aligner;
  return aligner.Distance(a, b);
}

}  // namespace gkgpu
