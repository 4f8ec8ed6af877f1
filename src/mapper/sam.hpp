// SAM output for mapping results: header (multi-chromosome @SQ lines, an
// optional @RG read group) plus full-fidelity alignment records with FLAG
// semantics — strand bits for reverse-complement mappings, the complete
// paired-end bit set (0x1/0x2/0x4/0x8/0x10/0x20/0x40/0x80) plus the
// duplicate bit (0x400), RNEXT/PNEXT/TLEN, and NM / RG:Z tags.  Records
// carrying FLAG 0x10 emit the reverse-complemented SEQ and reversed QUAL,
// per the spec.  Every record carries a computed MAPQ (mapper/mapq.hpp):
// the record-list writers derive it from each read's candidate
// multiplicity and best/second-best edit gap, and unmapped records carry
// MAPQ 0 — 255 ("unavailable") is never emitted.
#ifndef GKGPU_MAPPER_SAM_HPP
#define GKGPU_MAPPER_SAM_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
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
/// library emits.  Positions are 0-based (the writer adds the SAM +1);
/// pos/pnext < 0 print as 0 (unplaced).  The caller supplies SEQ/QUAL
/// already oriented to match FLAG 0x10 — the writer performs no
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

void WriteSam(std::ostream& out, const SamRecord& rec);

/// Headers; a non-empty `read_group` adds "@RG\tID:<read_group>".
void WriteSamHeader(std::ostream& out, std::string_view ref_name,
                    std::int64_t ref_length, std::string_view read_group = {});

/// Multi-chromosome header: one @SQ line per chromosome, in table order.
void WriteSamHeader(std::ostream& out, const ReferenceSet& ref,
                    std::string_view read_group = {});

/// One single-end alignment line with an explicit read name and a bare
/// <len>M CIGAR (WriteSamRecords' records).  `seq` must already be
/// oriented (reverse-complemented when flags carry 0x10).
void WriteSamRecord(std::ostream& out, std::string_view read_name, int flags,
                    std::string_view seq, std::int64_t pos, int edit_distance,
                    int mapq, std::string_view ref_name,
                    std::string_view read_group = {});

/// One single-end alignment line with a caller-supplied CIGAR (e.g.
/// computed by a chunk worker right after verification).
void WriteSamLine(std::ostream& out, std::string_view read_name, int flags,
                  std::string_view seq, std::string_view chrom_name,
                  std::int64_t local_pos, int edit_distance, int mapq,
                  std::string_view cigar, std::string_view read_group = {});

/// Full-fidelity single record: recomputes the banded alignment of the
/// oriented `seq` against `ref_window` (the reference bases the mapping
/// covers) and emits the real CIGAR.  The blocking SAM writers use it; the
/// chunk workers run the same CigarFor + WriteSamLine, so both paths
/// produce byte-identical records.
void WriteSamAlignment(std::ostream& out, std::string_view read_name,
                       int flags, std::string_view seq,
                       std::string_view chrom_name, std::int64_t local_pos,
                       int edit_distance, int mapq,
                       std::string_view ref_window,
                       std::string_view read_group = {});

/// The record-list writers below require `records` grouped by read (each
/// read's mappings contiguous) — the order every mapping driver produces —
/// compute per-record MAPQ from the group's multiplicity and edit gap
/// (AssignMapqs), capped at `mapq_cap`, and emit the group under
/// `policy`: the primary record only (kBestOnly, default) or every
/// placement with secondaries flagged 0x100 at MAPQ 0.
void WriteSamRecords(std::ostream& out, const std::vector<std::string>& reads,
                     const std::vector<MappingRecord>& records,
                     std::string_view ref_name,
                     int mapq_cap = kDefaultMapqCap,
                     SecondaryPolicy policy = SecondaryPolicy::kBestOnly);

/// Full-fidelity variant: recomputes each mapping's banded alignment
/// against `genome` and emits the real CIGAR instead of a bare match run.
/// Reverse-strand records (MappingRecord::strand) emit FLAG 0x10 and the
/// reverse-complemented sequence.
void WriteSamRecordsWithCigar(std::ostream& out,
                              const std::vector<std::string>& reads,
                              const std::vector<MappingRecord>& records,
                              std::string_view ref_name,
                              std::string_view genome,
                              int mapq_cap = kDefaultMapqCap,
                              SecondaryPolicy policy =
                                  SecondaryPolicy::kBestOnly);

/// Multi-chromosome variant: records carry global (concatenated) positions;
/// each line is addressed chromosome-locally via `ref`.  `names` supplies
/// the read names ("read<i>" when empty).
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
