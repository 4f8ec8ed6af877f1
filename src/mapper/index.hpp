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
//
// The build is a two-level radix sort of the genome's k-mer starts by
// code, so its random writes stay in cache instead of spraying over the
// 4^k offset table:
//   1. partition: the genome is cut into contiguous slices (at most 256);
//      each slice counts its k-mers per partition — the code's top 8 bits,
//      its first four bases — then scatters every start into its
//      partition's region of `positions`, slice after slice;
//   2. sort: one worker per partition counting-sorts the region by the
//      code's low 2k - 8 bits, recomputed from the genome text, using the
//      partition's own slice of `offsets` (4^(k-4) entries, 256 KiB at
//      k = 12) as the count table, and leaves that slice holding the
//      region's bucket starts.
// Both steps are stable and slices are contiguous, so every bucket lists
// its positions in ascending order and the CSR arrays do not depend on
// the slicing or the worker count.  Memory beyond the two CSR arrays: a
// slices x 256 count table (at most 256 KiB) and, per worker, one 8-byte
// (low code, position) entry per position of the largest partition it
// sorts.  No second 4^k table is ever allocated.
#ifndef GKGPU_MAPPER_INDEX_HPP
#define GKGPU_MAPPER_INDEX_HPP

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace gkgpu {

class ThreadPool;

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

  /// Builds the index on `pool`'s threads and the caller (serially when
  /// `pool` is null); the arrays are the same either way.  k-mers
  /// containing 'N' are not indexed.  Throws std::invalid_argument, naming
  /// the value, when k is outside [4, 14] (the offset table is 4^k + 1
  /// entries; mrFAST uses 12) or `genome` exceeds kMaxGenomeLength.
  KmerIndex(std::string_view genome, int k = 12, ThreadPool* pool = nullptr);

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
  // Leaves elements uninitialized on resize: the build writes every CSR
  // entry itself, across the pool, so value-initialization would only add
  // a serial zeroing pass over both arrays before it.
  template <typename T>
  struct UninitializedAllocator : std::allocator<T> {
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  using CsrArray =
      std::vector<std::uint32_t, UninitializedAllocator<std::uint32_t>>;

  int k_ = 0;
  std::size_t genome_length_ = 0;
  CsrArray offsets_;    // owned storage (empty in views)
  CsrArray positions_;  // owned storage (empty in views)
  std::span<const std::uint32_t> offsets_view_;    // 4^k + 1
  std::span<const std::uint32_t> positions_view_;  // CSR payload
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_INDEX_HPP
