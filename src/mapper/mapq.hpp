// Mapping quality from candidate multiplicity and alignment-score gaps.
//
// The filter's accuracy story only matters relative to which candidate
// ultimately wins: a read whose best placement is unique and far ahead of
// the runner-up is trustworthy, a read torn between equal repeat
// placements is not, whatever the filter's false-accept rate did on the
// way (SOAP3-dp derives per-read quality from exactly this score gap).
// The model here is shared by every driver — blocking MapReads, the
// FASTQ-to-SAM stream, the daemon and paired mapping — so golden SAM files
// stay byte-identical across them:
//
//   * penalties are edit-based (see align/local.hpp's AlignmentScore
//     scale): a placement's penalty is its edit count, a pair's the sum
//     of both mates' edits plus the insert-size term;
//   * >= 2 placements tied at the best penalty -> MAPQ 0 (the placement
//     is a coin flip);
//   * a unique best placement starts from `cap` minus a per-edit
//     discount, then is limited by the gap to the second-best placement
//     when one exists: MAPQ = min(base, kGapScale * gap).
//
// MAPQ 255 ("unavailable") is never emitted; unmapped records carry 0.
#ifndef GKGPU_MAPPER_MAPQ_HPP
#define GKGPU_MAPPER_MAPQ_HPP

#include <cstddef>
#include <vector>

namespace gkgpu {

/// Default MAPQ ceiling (the BWA/SOAP3-dp convention); CLI --mapq-cap.
inline constexpr int kDefaultMapqCap = 60;

/// MAPQ discount per edit in the best placement: residual edits mean the
/// read disagrees with its locus, so confidence falls even without a
/// runner-up.
inline constexpr int kEditDiscount = 4;

/// MAPQ per unit of best/second-best penalty gap: one extra edit in the
/// runner-up buys 10 points, saturating at the base confidence.
inline constexpr int kGapScale = 10;

/// MAPQ of a placement with penalty `best` (edits, or edits plus insert
/// term for pairs), runner-up penalty `second` (< 0 = no runner-up), and
/// `best_count` placements tied at the best penalty.
int ComputeMapq(double best, double second, std::size_t best_count, int cap);

/// Best / runner-up summary of one read's verified placements — the
/// inputs ComputeMapq consumes, shared by the per-record writers
/// (AssignMapqs) and the paired finalizer so the tie/second-tracking
/// subtleties live once.
struct EditSummary {
  int best = -1;             // fewest edits; -1 = no placement
  std::size_t best_count = 0;  // placements tied at `best`
  int second = -1;           // next-distinct edit count; -1 = none
};

/// Summarizes nonnegative per-placement edit counts.
EditSummary SummarizeEdits(const std::vector<int>& edits);

/// Per-record MAPQs for one read's emitted mappings (`edits[i]` >= 0, the
/// verified edit distance of record i): the first record achieving the
/// best edit count carries the read-level MAPQ, every other record 0 (a
/// secondary placement is by definition not the one to trust).  Ties at
/// the best edit count zero the whole read.
std::vector<int> AssignMapqs(const std::vector<int>& edits, int cap);

/// Index of the read's primary placement — the record AssignMapqs scores
/// (first to achieve the best edit count).  `edits` must be non-empty.
/// The SAM writers emit exactly this record under the best-only output
/// mode and flag every other one 0x100 under report-secondary, so the
/// two notions can never drift apart.  The two-argument form reuses a
/// summary the caller already computed (the group writers derive
/// primary, MAPQ and flags from one SummarizeEdits scan).
std::size_t PrimaryIndex(const std::vector<int>& edits);
std::size_t PrimaryIndex(const std::vector<int>& edits,
                         const EditSummary& summary);

/// MAPQ of a mate placed by rescue: the placement exists only because of
/// its anchor, so it cannot be more trusted than the anchor is, nor than
/// its own residual edits allow.
int RescueMapq(int anchor_mapq, int rescued_edits, int cap);

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_MAPQ_HPP
