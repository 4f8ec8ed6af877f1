// Multi-chromosome reference: named sequences concatenated into one
// addressable text, the way short-read mappers index a genome.  Seeding and
// filtration work in global (concatenated) coordinates — one k-mer index,
// one 2-bit encoded reference per device — while the chromosome table maps
// any global offset back to (chromosome, local position) for SAM output
// and rejects candidate windows that would span a chromosome junction.
#ifndef GKGPU_IO_REFERENCE_HPP
#define GKGPU_IO_REFERENCE_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/fasta.hpp"
#include "util/fingerprint.hpp"

namespace gkgpu {

struct ChromosomeInfo {
  std::string name;
  std::int64_t offset = 0;  // start in the concatenated text
  std::int64_t length = 0;
};

class ReferenceSet {
 public:
  ReferenceSet() = default;

  /// One-chromosome reference (the legacy single-genome workloads).
  ReferenceSet(std::string name, std::string sequence);

  /// Builds the set from FASTA records in file order.  Names are truncated
  /// at the first whitespace (the FASTA description field is not part of
  /// the sequence name).  Throws on an empty record set, an empty or
  /// duplicate name, or an empty sequence.
  static ReferenceSet FromFasta(const std::vector<FastaRecord>& records);
  static ReferenceSet FromFastaFile(const std::string& path);

  /// Non-owning view over externally owned text (an mmap'd index file,
  /// which must outlive the view).  `chromosomes` must tile `text` exactly
  /// in offset order; throws std::invalid_argument otherwise.  `fingerprint`
  /// is trusted (the index loader validates it against the file header).
  static ReferenceSet View(std::vector<ChromosomeInfo> chromosomes,
                           std::string_view text, std::uint64_t fingerprint);

  /// Appends a chromosome; same validation as FromFasta.  Throws
  /// std::logic_error on a View() instance (its text is immutable).
  void Add(std::string name, std::string_view sequence);

  /// The concatenated text (what the k-mer index and the mapper's encoded
  /// reference are built over).  For View() instances this aliases the
  /// external storage; otherwise it views the owned string.
  std::string_view text() const {
    return view_.data() != nullptr ? view_ : std::string_view(text_);
  }
  std::int64_t length() const {
    return static_cast<std::int64_t>(text().size());
  }
  /// FingerprintText(text()), maintained incrementally across Add() calls;
  /// the index file's reference fingerprint, computed without rescanning
  /// the genome.
  std::uint64_t fingerprint() const { return fingerprint_; }

  bool empty() const { return chromosomes_.empty(); }
  std::size_t chromosome_count() const { return chromosomes_.size(); }
  const ChromosomeInfo& chromosome(std::size_t i) const {
    return chromosomes_[i];
  }
  const std::vector<ChromosomeInfo>& chromosomes() const {
    return chromosomes_;
  }
  /// Each chromosome's global end (offset + length), ascending: the index
  /// the junction tests search, eight bytes a chromosome.
  const std::vector<std::int64_t>& chromosome_ends() const { return ends_; }

  /// Index of the chromosome containing the global position; -1 when out of
  /// range.
  int Locate(std::int64_t global_pos) const;

  /// True when [global_pos, global_pos + len) lies entirely inside one
  /// chromosome — candidate windows crossing a junction are chimeric and
  /// must be dropped at seeding time.
  bool WindowWithinChromosome(std::int64_t global_pos, int len) const {
    if (len <= 0 || global_pos < 0) return false;
    // The first chromosome ending after the window's start holds it.
    const auto end = std::upper_bound(ends_.begin(), ends_.end(), global_pos);
    return end != ends_.end() && global_pos + len <= *end;
  }

  /// Global -> chromosome-local position (caller guarantees `chrom` is the
  /// chromosome returned by Locate).
  std::int64_t ToLocal(int chrom, std::int64_t global_pos) const {
    return global_pos - chromosomes_[static_cast<std::size_t>(chrom)].offset;
  }

 private:
  std::string text_;  // owned storage (empty in views)
  // Set only in view mode; never points at text_ (a self-referential view
  // would dangle across moves under SSO).
  std::string_view view_;
  std::vector<ChromosomeInfo> chromosomes_;
  std::vector<std::int64_t> ends_;  // chromosome_ends()
  std::uint64_t fingerprint_ = kFingerprintSeed;
};

}  // namespace gkgpu

#endif  // GKGPU_IO_REFERENCE_HPP
