// Smith-Waterman-style local ("fit") alignment of a whole read inside a
// longer reference window: reference gaps before and after the placement
// are free, the read itself aligns globally.  This is the alignment shape
// mate rescue needs — the insert-size model predicts a window, not an
// offset — and, unlike the per-offset banded scans it replaces, it
// recovers placements containing indels: a read with d deleted reference
// bases costs ~2d edits against every fixed length-L window (the shifted
// tail pays again) but only d here, because the placement's reference span
// is free to be L + d.
//
// Scoring is edit-based (unit mismatch/indel cost), so results compose
// directly with the banded verifier's distances and the MAPQ model
// (mapper/mapq.hpp): the fit distance of a placement equals what
// BandedEditDistance would report against that placement's exact span.
#ifndef GKGPU_ALIGN_LOCAL_HPP
#define GKGPU_ALIGN_LOCAL_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gkgpu {

/// One fit placement of a read inside a reference window.
struct LocalAlignment {
  /// Edits of the best placement, or -1 when nothing fits within the
  /// budget.
  int edits = -1;
  /// Window-relative offset of the placement's first reference base.
  std::int64_t ref_begin = 0;
  /// Reference bases the placement consumes (== read length + D - I runs).
  int ref_span = 0;
  /// Distinct minimum-edit placements in the window: end columns tied at
  /// the best edit count, clustered so same-locus alignment variants
  /// (ends within max_edits of each other — an extra end gap costs an
  /// edit) count once.  > 1 means the window is a repeat and the
  /// returned placement is a coin flip; MAPQ must treat it like any
  /// other tie (score 0).
  int placements = 0;
  /// Read-global CIGAR of the placement (M/I/D, SAM conventions).
  std::string cigar;
};

/// Reusable-buffer fit aligner: one instance per thread amortizes the DP
/// matrix (the traceback walks it directly) across a rescue loop.  Not
/// thread-safe.
class LocalAligner {
 public:
  /// Best placement of `read` anywhere inside `ref` with at most
  /// `max_edits` edits; returns edits == -1 when no placement fits the
  /// budget.  `max_begin` (window-relative; < 0 = unrestricted) bounds the
  /// placement's first reference base — rescue windows extend past the
  /// last admissible start so indel placements are not clipped, without
  /// admitting starts beyond it.  Deterministic tie-breaks: among
  /// minimum-edit placements the one ending leftmost in `ref` wins, and
  /// the traceback prefers diagonal (M) moves so runs stay long.
  /// Each row computes only its live band: the columns that can hold a
  /// value <= max_edits, i.e. the previous row's live span plus one,
  /// extended rightwards while a deletion chain stays within budget.  The
  /// first max_edits rows are live across the free prefix (up to
  /// `max_begin`), and further down only the neighbourhoods of
  /// near-matches stay live, so a rescue window costs about max_edits
  /// full rows plus a few columns per row, and a row with no live cell
  /// ends the search.  The matrix is re-sentineled rather than cleared
  /// between calls.
  LocalAlignment BestFit(std::string_view read, std::string_view ref,
                         int max_edits, std::int64_t max_begin = -1);

 private:
  // (m + 1) x (n + 1) edit matrix; only each row's computed columns (plus
  // kInf sentinels) are rewritten per call, so cells outside them hold
  // stale values by design.
  std::vector<int> dp_;
  // Per row, the first and last column holding a value <= max_edits: the
  // bounds of the answer scan and of every traceback read.
  std::vector<std::pair<int, int>> live_;
};

/// Match-scaled alignment score shared by the MAPQ model: +2 per aligned
/// base, -5 per edit (one lost match plus a mismatch-sized penalty), the
/// scale on which best/second-best score gaps are measured.
inline int AlignmentScore(int read_length, int edits) {
  return 2 * read_length - 5 * edits;
}

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_LOCAL_HPP
