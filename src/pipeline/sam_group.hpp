// Per-read SAM record grouping for the single-end chunk mapper
// (ReadChunkMapper: StreamFastqToSam and the daemon).  A read's verified
// mappings buffer until the read is done — only then is its multiplicity
// known and its records scorable — and the flush runs the exact
// computation of the blocking writers (SummarizeEdits -> PrimaryIndex ->
// ComputeMapq -> WriteSamLine under the secondary policy), which is what
// keeps streamed and served output byte-identical to MapReads' SAM.
#ifndef GKGPU_PIPELINE_SAM_GROUP_HPP
#define GKGPU_PIPELINE_SAM_GROUP_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "io/reference.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"

namespace gkgpu::pipeline {

struct SamGroupOptions {
  /// RG:Z:<id> on every record ("" = none).
  std::string read_group;
  /// MAPQ ceiling (mapper/mapq.hpp).
  int mapq_cap = kDefaultMapqCap;
  /// Best-only (default) or report-secondary (FLAG 0x100, MAPQ 0).
  SecondaryPolicy secondary = SecondaryPolicy::kBestOnly;
};

class SamGroupBuffer {
 public:
  /// Buffers one verified mapping of the current read: `seq` already
  /// oriented to `flags` (reverse-complemented under FLAG 0x10), the
  /// chromosome-local position, the edit distance and the CIGAR.
  void AddMapping(int flags, std::string_view seq, std::int32_t chrom,
                  std::int64_t pos, int edits, std::string cigar);

  /// Scores and writes the current read's group as `name` under
  /// `options`, then clears it; returns the number of records written.  A
  /// read whose candidates all failed verification writes nothing.
  std::size_t FlushGroup(std::ostream& out, const ReferenceSet& ref,
                         std::string_view name,
                         const SamGroupOptions& options);

 private:
  struct GroupRecord {
    int flags = 0;
    std::string seq;
    std::int32_t chrom = 0;
    std::int64_t pos = 0;
    int edits = 0;
    std::string cigar;
  };

  std::vector<GroupRecord> group_;
  std::vector<int> group_edits_;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_SAM_GROUP_HPP
