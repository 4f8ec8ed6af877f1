#include "pipeline/sam_group.hpp"

#include <ostream>
#include <utility>

namespace gkgpu::pipeline {

void SamGroupBuffer::AddMapping(int flags, std::string_view seq,
                                std::int32_t chrom, std::int64_t pos,
                                int edits, std::string cigar) {
  group_.push_back(
      {flags, std::string(seq), chrom, pos, edits, std::move(cigar)});
}

std::size_t SamGroupBuffer::FlushGroup(std::ostream& out,
                                       const ReferenceSet& ref,
                                       std::string_view name,
                                       const SamGroupOptions& options) {
  if (group_.empty()) return 0;
  // One summary scan gives the primary record and its MAPQ (every other
  // placement scores 0), then primary-only or everything-with-secondaries-
  // flagged, exactly like the blocking record writers.
  group_edits_.clear();
  for (const GroupRecord& g : group_) group_edits_.push_back(g.edits);
  const EditSummary s = SummarizeEdits(group_edits_);
  const std::size_t primary = PrimaryIndex(group_edits_, s);
  const int primary_mapq =
      ComputeMapq(s.best, s.second, s.best_count, options.mapq_cap);
  std::size_t written = 0;
  for (std::size_t g = 0; g < group_.size(); ++g) {
    if (g != primary && options.secondary == SecondaryPolicy::kBestOnly) {
      continue;
    }
    const GroupRecord& r = group_[g];
    const int flags = r.flags | (g == primary ? 0 : kSamSecondary);
    WriteSamLine(out, name, flags, r.seq,
                 ref.chromosome(static_cast<std::size_t>(r.chrom)).name,
                 r.pos, r.edits, g == primary ? primary_mapq : 0, r.cigar,
                 options.read_group);
    ++written;
  }
  group_.clear();
  return written;
}

}  // namespace gkgpu::pipeline
