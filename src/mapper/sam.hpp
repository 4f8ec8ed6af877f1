// SAM output for mapping results: the header (multi-chromosome @SQ lines,
// an optional @RG read group) and one record formatter, AppendSam, that
// every driver's records go through.  FLAG semantics: strand bits for
// reverse-complement mappings, the complete paired-end bit set
// (0x1/0x2/0x4/0x8/0x10/0x20/0x40/0x80) plus the duplicate bit (0x400),
// RNEXT/PNEXT/TLEN, and NM / RG:Z tags.  Records carrying FLAG 0x10 emit
// the reverse-complemented SEQ and reversed QUAL, per the spec.  Every
// record carries a computed MAPQ (mapper/mapq.hpp): single-end records are
// scored per read by SamGroupBuffer from the read's multiplicity and
// best/second-best edit gap, and unmapped records carry MAPQ 0 — 255
// ("unavailable") is never emitted.
#ifndef GKGPU_MAPPER_SAM_HPP
#define GKGPU_MAPPER_SAM_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mapq.hpp"

namespace gkgpu {

// FLAG bits (SAM spec 1.4).
inline constexpr int kSamPaired = 0x1;
inline constexpr int kSamProperPair = 0x2;
inline constexpr int kSamUnmapped = 0x4;
inline constexpr int kSamMateUnmapped = 0x8;
inline constexpr int kSamReverse = 0x10;
inline constexpr int kSamMateReverse = 0x20;
inline constexpr int kSamFirstInPair = 0x40;
inline constexpr int kSamSecondInPair = 0x80;
inline constexpr int kSamSecondary = 0x100;
inline constexpr int kSamDuplicate = 0x400;

/// Which records of a multi-mapping read the single-end writers emit.
enum class SecondaryPolicy {
  /// Only the primary placement — the record AssignMapqs scores (first at
  /// the best edit count) — one record per mapped read.  The default.
  kBestOnly,
  /// Every verified placement: the primary as under kBestOnly, every
  /// other placement flagged 0x100 with MAPQ 0 (a secondary placement is
  /// by definition not the one to trust).  CLI --report-secondary.
  kReportSecondary,
};

/// One alignment line, all eleven mandatory fields plus the tags this
/// library emits.  Positions are 0-based (the formatter adds the SAM +1);
/// pos/pnext < 0 print as 0 (unplaced).  The caller supplies SEQ/QUAL
/// already oriented to match FLAG 0x10 — the formatter performs no
/// reorientation of its own.
struct SamRecord {
  std::string_view qname;
  int flags = 0;
  std::string_view rname = "*";
  std::int64_t pos = -1;
  /// Computed mapping quality; 0 (not 255) for unmapped or unscored
  /// records, so no emitted line ever claims "MAPQ unavailable".
  int mapq = 0;
  std::string_view cigar = "*";
  std::string_view rnext = "*";
  std::int64_t pnext = -1;
  std::int64_t tlen = 0;
  std::string_view seq = "*";
  std::string_view qual = "*";
  int nm = -1;                  // NM:i: edit distance; < 0 omits the tag
  std::string_view read_group;  // RG:Z:; empty omits the tag
};

/// Appends `rec` to `*out` as one tab-separated line ending in '\n'.
void AppendSam(std::string* out, const SamRecord& rec);

/// The header: @HD, one @SQ line per chromosome in table order, "@RG
/// ID:<read_group>" when `read_group` is non-empty, and @PG.
void WriteSamHeader(std::ostream& out, const ReferenceSet& ref,
                    std::string_view read_group = {});

/// How a read's verified mappings become records.
struct SamGroupOptions {
  /// RG:Z:<id> on every record ("" = none).
  std::string read_group;
  /// MAPQ ceiling (mapper/mapq.hpp).
  int mapq_cap = kDefaultMapqCap;
  /// Best-only (default) or report-secondary (FLAG 0x100, MAPQ 0).
  SecondaryPolicy secondary = SecondaryPolicy::kBestOnly;
};

/// One single-end read's verified mappings, held until the read is done —
/// only then is its multiplicity known and its records scorable.  The one
/// place a read's records are grouped, scored (SummarizeEdits ->
/// PrimaryIndex -> ComputeMapq) and filtered by the secondary policy: the
/// chunk workers, the daemon and WriteSamRecordsMultiChrom all flush
/// through it, which keeps their SAM byte-identical.
class SamGroupBuffer {
 public:
  /// Buffers one verified mapping of the current read: `seq` already
  /// oriented to `flags` (reverse-complemented under FLAG 0x10), the
  /// reference `window` it verified against, the chromosome-local
  /// position and the exact edit distance.  `seq` and `window` are views
  /// that must stay valid until FlushGroup, which derives the CIGAR of
  /// each emitted record from them (CigarFor).
  void AddMapping(int flags, std::string_view seq, std::string_view window,
                  std::int32_t chrom, std::int64_t pos, int edits);

  /// Scores and appends the current read's records to `*out` as `name`
  /// under `options`, then clears the group; returns the number of records
  /// appended.  A read whose candidates all failed verification appends
  /// nothing.
  std::size_t FlushGroup(std::string* out, const ReferenceSet& ref,
                         std::string_view name,
                         const SamGroupOptions& options);

 private:
  struct GroupRecord {
    int flags = 0;
    std::string_view seq;
    std::string_view window;
    std::int32_t chrom = 0;
    std::int64_t pos = 0;
    int edits = 0;
  };

  std::vector<GroupRecord> group_;
  std::vector<int> group_edits_;
};

/// Writes MapReads' records: `records` carry global (concatenated)
/// positions and must be grouped by read (each read's mappings contiguous,
/// the order MapReads produces); each read's group is formatted through
/// SamGroupBuffer, addressed chromosome-locally via `ref`, with the CIGAR
/// of its banded alignment against the genome.  Reverse-strand records
/// (MappingRecord::strand) emit FLAG 0x10 and the reverse-complemented
/// sequence.  `names` supplies the read names ("read<i>" when empty).
void WriteSamRecordsMultiChrom(std::ostream& out,
                               const std::vector<std::string>& reads,
                               const std::vector<std::string>& names,
                               const std::vector<MappingRecord>& records,
                               const ReferenceSet& ref,
                               std::string_view read_group = {},
                               int mapq_cap = kDefaultMapqCap,
                               SecondaryPolicy policy =
                                   SecondaryPolicy::kBestOnly);

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_SAM_HPP
