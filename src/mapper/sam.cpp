#include "mapper/sam.hpp"

#include <charconv>
#include <ostream>
#include <stdexcept>

#include "align/cigar.hpp"
#include "encode/revcomp.hpp"
#include "mapper/mapq.hpp"

namespace gkgpu {

namespace {

void AppendDecimal(std::string* out, std::int64_t v) {
  char digits[20];  // INT64_MIN has 19 digits and a sign
  out->append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

}  // namespace

void AppendSam(std::string* out, const SamRecord& rec) {
  const auto text = [out](std::string_view s) {
    out->push_back('\t');
    out->append(s);
  };
  const auto number = [out](std::int64_t v) {
    out->push_back('\t');
    AppendDecimal(out, v);
  };
  out->append(rec.qname);
  number(rec.flags);
  text(rec.rname);
  number(rec.pos < 0 ? 0 : rec.pos + 1);
  number(rec.mapq);
  text(rec.cigar);
  text(rec.rnext);
  number(rec.pnext < 0 ? 0 : rec.pnext + 1);
  number(rec.tlen);
  text(rec.seq);
  text(rec.qual);
  if (rec.nm >= 0) {
    out->append("\tNM:i:");
    AppendDecimal(out, rec.nm);
  }
  if (!rec.read_group.empty()) {
    out->append("\tRG:Z:");
    out->append(rec.read_group);
  }
  out->push_back('\n');
}

void WriteSamHeader(std::ostream& out, const ReferenceSet& ref,
                    std::string_view read_group) {
  out << "@HD\tVN:1.6\tSO:unknown\n";
  for (const ChromosomeInfo& c : ref.chromosomes()) {
    out << "@SQ\tSN:" << c.name << "\tLN:" << c.length << '\n';
  }
  if (!read_group.empty()) out << "@RG\tID:" << read_group << '\n';
  out << "@PG\tID:gkgpu\tPN:gatekeeper-gpu-repro\tVN:1.0.0\n";
}

void SamGroupBuffer::AddMapping(int flags, std::string_view seq,
                                std::string_view window, std::int32_t chrom,
                                std::int64_t pos, int edits) {
  group_.push_back({flags, seq, window, chrom, pos, edits});
}

std::size_t SamGroupBuffer::FlushGroup(std::string* out,
                                       const ReferenceSet& ref,
                                       std::string_view name,
                                       const SamGroupOptions& options) {
  if (group_.empty()) return 0;
  // One summary scan gives the primary record and its MAPQ; every other
  // placement scores 0 and is emitted only under report-secondary.
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
    const std::string cigar = CigarFor(r.seq, r.window, r.edits);
    SamRecord rec;
    rec.qname = name;
    rec.flags = r.flags | (g == primary ? 0 : kSamSecondary);
    rec.rname = ref.chromosome(static_cast<std::size_t>(r.chrom)).name;
    rec.pos = r.pos;
    rec.mapq = g == primary ? primary_mapq : 0;
    rec.cigar = cigar;
    rec.seq = r.seq;
    rec.nm = r.edits;
    rec.read_group = options.read_group;
    AppendSam(out, rec);
    ++written;
  }
  group_.clear();
  return written;
}

void WriteSamRecordsMultiChrom(std::ostream& out,
                               const std::vector<std::string>& reads,
                               const std::vector<std::string>& names,
                               const std::vector<MappingRecord>& records,
                               const ReferenceSet& ref,
                               std::string_view read_group, int mapq_cap,
                               SecondaryPolicy policy) {
  // Bytes formatted before they go to `out`: a pass's SAM is written in
  // slices of this size rather than held whole.
  constexpr std::size_t kWriteBytes = 64u << 10;
  const SamGroupOptions options{std::string(read_group), mapq_cap, policy};
  const std::string_view genome = ref.text();
  SamGroupBuffer group;
  std::string rc;
  std::string fallback;
  std::string sam;
  std::size_t i = 0;
  while (i < records.size()) {
    const std::uint32_t r = records[i].read_index;
    const std::string& read = reads[r];
    // The record's SEQ is the strand the mapping verified: the read itself
    // on the forward strand, its reverse complement (FLAG 0x10) otherwise.
    bool have_rc = false;
    for (; i < records.size() && records[i].read_index == r; ++i) {
      const MappingRecord& m = records[i];
      const int chrom = ref.Locate(m.pos);
      if (chrom < 0) {
        throw std::runtime_error(
            "SAM: mapping position outside the reference");
      }
      if (m.strand != 0 && !have_rc) {
        ReverseComplementInto(read, &rc);
        have_rc = true;
      }
      group.AddMapping(
          m.strand != 0 ? kSamReverse : 0,
          m.strand != 0 ? std::string_view(rc) : std::string_view(read),
          genome.substr(static_cast<std::size_t>(m.pos), read.size()), chrom,
          ref.ToLocal(chrom, m.pos), m.edit_distance);
    }
    if (names.empty()) fallback = "read" + std::to_string(r);
    group.FlushGroup(&sam, ref,
                     names.empty() ? std::string_view(fallback)
                                   : std::string_view(names[r]),
                     options);
    if (sam.size() >= kWriteBytes) {
      out.write(sam.data(), static_cast<std::streamsize>(sam.size()));
      sam.clear();
    }
  }
  out.write(sam.data(), static_cast<std::streamsize>(sam.size()));
}

}  // namespace gkgpu
