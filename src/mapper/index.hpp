// k-mer hash index over the reference genome, mrFAST-style: every position
// of every k-mer, stored in a CSR layout (offset table over the 4^k code
// space + a flat position array).  It is the only seeding index: seeding
// looks up the non-overlapping k-mers of a read (its pigeonhole seeds) and
// turns hits into candidate mapping locations.
//
// The index exists in two storage modes: built (the constructor scans the
// genome and owns the CSR arrays) or viewed (spans over externally owned
// storage — an mmap'd index file; see io/index_io.hpp).  Lookup always
// goes through the spans, so both modes share one hot path.
#ifndef GKGPU_MAPPER_INDEX_HPP
#define GKGPU_MAPPER_INDEX_HPP

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace gkgpu {

class KmerIndex {
 public:
  /// Largest indexable genome: positions are stored as uint32, so a text
  /// past 2^32 - 1 bases cannot be addressed.  Construction throws
  /// std::invalid_argument beyond this bound rather than silently
  /// truncating positions; larger genomes go through SeedIndex, which
  /// builds one KmerIndex per chromosome-group shard (ShardPlan,
  /// --shard-max-bp).
  static constexpr std::size_t kMaxGenomeLength = 0xFFFFFFFFull;

  /// Empty index (k() == 0, every lookup misses) — a placeholder to
  /// move-assign a real index into (MappedIndexFile holds one by value).
  KmerIndex() = default;

  /// Builds the index; k <= 14 (the offset table is 4^k + 1 entries;
  /// mrFAST uses 12).  k-mers containing 'N' are not indexed.  Throws
  /// when `genome` exceeds kMaxGenomeLength.
  KmerIndex(std::string_view genome, int k = 12);

  /// Non-owning view over a persisted CSR layout (typically spans into an
  /// mmap'd index file, which must outlive the view).  Validates the
  /// shape: `offsets` must hold exactly 4^k + 1 entries and end at
  /// `positions.size()`; throws std::invalid_argument otherwise.
  static KmerIndex View(int k, std::size_t genome_length,
                        std::span<const std::uint32_t> offsets,
                        std::span<const std::uint32_t> positions);

  // Views alias storage they do not own; copying an owning index would
  // silently re-point the copy's spans at the original's buffers.  Moves
  // are safe (vector buffers are address-stable across moves).
  KmerIndex(const KmerIndex&) = delete;
  KmerIndex& operator=(const KmerIndex&) = delete;
  KmerIndex(KmerIndex&&) = default;
  KmerIndex& operator=(KmerIndex&&) = default;

  int k() const { return k_; }
  std::size_t genome_length() const { return genome_length_; }
  std::size_t indexed_kmers() const { return positions_view_.size(); }
  /// True when this index owns its CSR storage (built from a genome);
  /// false for View() instances, whose backing memory the caller keeps
  /// alive.  An owning offset table is never empty (4^k + 1 entries).
  bool owns_storage() const { return !offsets_.empty(); }

  /// The raw CSR layout, for serialization (io/index_io.hpp).
  std::span<const std::uint32_t> offsets() const { return offsets_view_; }
  std::span<const std::uint32_t> positions() const { return positions_view_; }

  /// Encodes a k-mer to its code; returns -1 if it contains unknown bases.
  std::int64_t Encode(std::string_view kmer) const;

  /// All genome positions of the exact k-mer (empty when absent or
  /// malformed).
  std::span<const std::uint32_t> Lookup(std::string_view kmer) const;
  std::span<const std::uint32_t> LookupCode(std::int64_t code) const;

 private:
  int k_ = 0;
  std::size_t genome_length_ = 0;
  std::vector<std::uint32_t> offsets_;    // owned storage (empty in views)
  std::vector<std::uint32_t> positions_;  // owned storage (empty in views)
  std::span<const std::uint32_t> offsets_view_;    // 4^k + 1
  std::span<const std::uint32_t> positions_view_;  // CSR payload
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_INDEX_HPP
