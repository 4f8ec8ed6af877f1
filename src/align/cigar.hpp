// Banded global alignment with traceback: produces the CIGAR string for a
// verified mapping (SAM conventions: M = match/mismatch consuming both
// sequences, I = base present in the read but not the reference, D = base
// present in the reference but not the read).  Used by the SAM writer so
// mapper output carries real alignments instead of a bare match run.
#ifndef GKGPU_ALIGN_CIGAR_HPP
#define GKGPU_ALIGN_CIGAR_HPP

#include <string>
#include <string_view>

namespace gkgpu {

struct Alignment {
  int distance = -1;  // -1 when the distance exceeds the band
  std::string cigar;  // run-length encoded, e.g. "48M1I51M"
};

/// Exact banded global alignment of `read` against `ref` with edit budget
/// k; Alignment.distance == BandedEditDistance(read, ref, k) and the CIGAR
/// describes one optimal alignment (diagonal moves preferred on ties).
/// An O(|read| * k) DP matrix walked back from the corner: CigarFor's
/// fallback, and the oracle its faster paths are tested against.
Alignment BandedAlign(std::string_view read, std::string_view ref, int k);

/// The CIGAR a SAM record carries for a verified placement: `edits` must
/// be the confirmed (exact) edit distance of read against window.  Equals
/// BandedAlign(read, window, edits).cigar when that succeeds and
/// "<read length>M" otherwise, byte for byte, by the cheapest of three
/// paths:
///   - a Hamming count, when it equals `edits` (the substitution-only
///     placements that dominate): "<read length>M" with no DP;
///   - equal lengths and edits <= 31: a diagonal-transition table (for
///     each score s and each of the floor(edits / 2) diagonals on either
///     side of the main one, the furthest row within s edits, extended
///     over matches 16 bytes at a time), from which BandedAlign's own
///     traceback is walked, a match run per step;
///   - otherwise BandedAlign.
std::string CigarFor(std::string_view read, std::string_view window,
                     int edits);

/// Applies a CIGAR to `ref` to check consistency with `read`: returns the
/// number of edits implied (M columns that mismatch + I + D runs), or -1
/// if the CIGAR does not span the two sequences.  Test/validation helper.
int CigarEdits(std::string_view read, std::string_view ref,
               const std::string& cigar);

/// Run-length encodes a per-column op string ("MMIDM" -> "2M1I1D1M") —
/// the final step of every traceback that emits a CIGAR (BandedAlign,
/// LocalAligner::BestFit).
std::string CompressCigarOps(const std::string& ops);

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_CIGAR_HPP
