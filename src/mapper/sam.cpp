#include "mapper/sam.hpp"

#include <ostream>
#include <stdexcept>

#include "align/cigar.hpp"
#include "encode/revcomp.hpp"
#include "mapper/mapq.hpp"

namespace gkgpu {

namespace {

/// Iterates `records` as contiguous per-read groups (the order every
/// mapping driver emits) and hands each *emitted* record to `emit`
/// together with its MAPQ (AssignMapqs) and the extra FLAG bits the
/// output policy dictates: under kBestOnly only the group's primary
/// record is seen; under kReportSecondary every record is, non-primary
/// ones carrying 0x100 (their MAPQ is already 0 by AssignMapqs).
template <typename Emit>
void ForEachEmittedRecord(const std::vector<MappingRecord>& records,
                          int mapq_cap, SecondaryPolicy policy, Emit&& emit) {
  std::vector<int> edits;
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t j = i;
    edits.clear();
    while (j < records.size() &&
           records[j].read_index == records[i].read_index) {
      edits.push_back(records[j].edit_distance);
      ++j;
    }
    // One summary scan yields everything the group needs: the primary
    // record, its MAPQ, and zero for every other placement (AssignMapqs
    // semantics, without rescanning per question).
    const EditSummary s = SummarizeEdits(edits);
    const std::size_t primary = i + PrimaryIndex(edits, s);
    const int primary_mapq =
        ComputeMapq(s.best, s.second, s.best_count, mapq_cap);
    for (std::size_t r = i; r < j; ++r) {
      if (r != primary && policy == SecondaryPolicy::kBestOnly) continue;
      emit(records[r], r == primary ? primary_mapq : 0,
           r == primary ? 0 : kSamSecondary);
    }
    i = j;
  }
}

}  // namespace

void WriteSam(std::ostream& out, const SamRecord& rec) {
  out << rec.qname << '\t' << rec.flags << '\t' << rec.rname << '\t'
      << (rec.pos < 0 ? 0 : rec.pos + 1) << '\t' << rec.mapq << '\t'
      << rec.cigar << '\t' << rec.rnext << '\t'
      << (rec.pnext < 0 ? 0 : rec.pnext + 1) << '\t' << rec.tlen << '\t'
      << rec.seq << '\t' << rec.qual;
  if (rec.nm >= 0) out << "\tNM:i:" << rec.nm;
  if (!rec.read_group.empty()) out << "\tRG:Z:" << rec.read_group;
  out << '\n';
}

void WriteSamHeader(std::ostream& out, std::string_view ref_name,
                    std::int64_t ref_length, std::string_view read_group) {
  out << "@HD\tVN:1.6\tSO:unknown\n";
  out << "@SQ\tSN:" << ref_name << "\tLN:" << ref_length << '\n';
  if (!read_group.empty()) out << "@RG\tID:" << read_group << '\n';
  out << "@PG\tID:gkgpu\tPN:gatekeeper-gpu-repro\tVN:1.0.0\n";
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

void WriteSamRecord(std::ostream& out, std::string_view read_name, int flags,
                    std::string_view seq, std::int64_t pos, int edit_distance,
                    int mapq, std::string_view ref_name,
                    std::string_view read_group) {
  const std::string cigar = std::to_string(seq.size()) + "M";
  SamRecord rec;
  rec.qname = read_name;
  rec.flags = flags;
  rec.rname = ref_name;
  rec.pos = pos;
  rec.mapq = mapq;
  rec.cigar = cigar;
  rec.seq = seq;
  rec.nm = edit_distance;
  rec.read_group = read_group;
  WriteSam(out, rec);
}

void WriteSamLine(std::ostream& out, std::string_view read_name, int flags,
                  std::string_view seq, std::string_view chrom_name,
                  std::int64_t local_pos, int edit_distance, int mapq,
                  std::string_view cigar, std::string_view read_group) {
  SamRecord rec;
  rec.qname = read_name;
  rec.flags = flags;
  rec.rname = chrom_name;
  rec.pos = local_pos;
  rec.mapq = mapq;
  rec.cigar = cigar;
  rec.seq = seq;
  rec.nm = edit_distance;
  rec.read_group = read_group;
  WriteSam(out, rec);
}

void WriteSamAlignment(std::ostream& out, std::string_view read_name,
                       int flags, std::string_view seq,
                       std::string_view chrom_name, std::int64_t local_pos,
                       int edit_distance, int mapq,
                       std::string_view ref_window,
                       std::string_view read_group) {
  WriteSamLine(out, read_name, flags, seq, chrom_name, local_pos,
               edit_distance, mapq, CigarFor(seq, ref_window, edit_distance),
               read_group);
}

void WriteSamRecords(std::ostream& out, const std::vector<std::string>& reads,
                     const std::vector<MappingRecord>& records,
                     std::string_view ref_name, int mapq_cap,
                     SecondaryPolicy policy) {
  std::string rc;
  ForEachEmittedRecord(
      records, mapq_cap, policy,
      [&](const MappingRecord& m, int mapq, int extra_flags) {
        const std::string& read = reads[m.read_index];
        const int flags = (m.strand != 0 ? kSamReverse : 0) | extra_flags;
        if (m.strand != 0) ReverseComplementInto(read, &rc);
        WriteSamRecord(out, "read" + std::to_string(m.read_index), flags,
                       m.strand != 0 ? std::string_view(rc)
                                     : std::string_view(read),
                       m.pos, m.edit_distance, mapq, ref_name);
      });
}

void WriteSamRecordsWithCigar(std::ostream& out,
                              const std::vector<std::string>& reads,
                              const std::vector<MappingRecord>& records,
                              std::string_view ref_name,
                              std::string_view genome, int mapq_cap,
                              SecondaryPolicy policy) {
  std::string rc;
  ForEachEmittedRecord(
      records, mapq_cap, policy,
      [&](const MappingRecord& m, int mapq, int extra_flags) {
        const std::string& read = reads[m.read_index];
        const std::string_view segment =
            genome.substr(static_cast<std::size_t>(m.pos), read.size());
        const int flags = (m.strand != 0 ? kSamReverse : 0) | extra_flags;
        if (m.strand != 0) ReverseComplementInto(read, &rc);
        WriteSamAlignment(out, "read" + std::to_string(m.read_index), flags,
                          m.strand != 0 ? std::string_view(rc)
                                        : std::string_view(read),
                          ref_name, m.pos, m.edit_distance, mapq, segment);
      });
}

void WriteSamRecordsMultiChrom(std::ostream& out,
                               const std::vector<std::string>& reads,
                               const std::vector<std::string>& names,
                               const std::vector<MappingRecord>& records,
                               const ReferenceSet& ref,
                               std::string_view read_group, int mapq_cap,
                               SecondaryPolicy policy) {
  const std::string_view genome = ref.text();
  std::string rc;
  ForEachEmittedRecord(
      records, mapq_cap, policy,
      [&](const MappingRecord& m, int mapq, int extra_flags) {
        const std::string& read = reads[m.read_index];
        const int chrom = ref.Locate(m.pos);
        if (chrom < 0) {
          throw std::runtime_error(
              "SAM: mapping position outside the reference");
        }
        const std::string_view segment =
            genome.substr(static_cast<std::size_t>(m.pos), read.size());
        const std::string fallback = "read" + std::to_string(m.read_index);
        const std::string_view name =
            names.empty() ? std::string_view(fallback) : names[m.read_index];
        // The record's SEQ is the strand the mapping verified: the read
        // itself on the forward strand, its reverse complement (FLAG 0x10)
        // otherwise.
        const int flags = (m.strand != 0 ? kSamReverse : 0) | extra_flags;
        if (m.strand != 0) ReverseComplementInto(read, &rc);
        WriteSamAlignment(out, name, flags,
                          m.strand != 0 ? std::string_view(rc)
                                        : std::string_view(read),
                          ref.chromosome(static_cast<std::size_t>(chrom)).name,
                          ref.ToLocal(chrom, m.pos), m.edit_distance, mapq,
                          segment, read_group);
      });
}

}  // namespace gkgpu
