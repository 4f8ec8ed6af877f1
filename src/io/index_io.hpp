// Persistent on-disk index ("GKGPUIDX"): one file holding everything a
// mapper needs at startup — the per-shard k-mer CSR indexes, the 2-bit
// encoded reference with its N-mask, the raw reference text, and the
// chromosome table.  `gkgpu index` writes it once; every later `map` or
// `serve` invocation mmaps it and is ready in microseconds, with the page
// cache sharing the hot arrays across processes.
//
// Format version 2, the only one read: a fixed little-endian header
// (magic, version, k, two reserved words, sizes, fingerprints, section
// geometry, checksums) followed by 8-byte-aligned sections — chromosome
// table, reference text, encoded reference, N-mask, one CSR (offsets +
// positions) per shard, the shard table, and a per-section checksum
// table.  Each shard's CSR is independently mmap-able: its geometry lives
// in its 64-byte shard-table entry, so a future reader could fault in
// only the shards it queries.  A file of any other version fails to
// open, naming its version and asking for a rebuild.  Every index is
// dense: the first reserved word once named a
// seed mode, and a file from an older build whose seed mode is not dense
// fails to open the same way.
//
// Loading never copies the big arrays — the SeedIndex and ReferenceSet
// come back in view mode, spanning straight into the mapping.
// Validation is layered: the header (magic, version, section geometry,
// header checksum, fingerprint consistency) is always checked; the
// checksums over the payload are opt-in (IndexLoadOptions) because
// hashing gigabytes would forfeit the instant-load property, and they
// verify each section independently, naming the corrupt one.  Each
// shard's CSR is checked only for its shape (KmerIndex::View); the seeder
// checks each bucket it reads against the positions array, so a corrupt
// offset is a named error at mapping time.
#ifndef GKGPU_IO_INDEX_IO_HPP
#define GKGPU_IO_INDEX_IO_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/encoded.hpp"
#include "io/reference.hpp"
#include "mapper/seed_index.hpp"

namespace gkgpu {

inline constexpr char kIndexMagic[8] = {'G', 'K', 'G', 'P',
                                        'U', 'I', 'D', 'X'};
inline constexpr std::uint32_t kIndexFormatVersion = 2;

/// Writes a version-2 index file from an already-built sharded index.
/// Returns the number of bytes written; throws std::runtime_error on I/O
/// failure.
std::uint64_t WriteIndexFile(const std::string& path, const ReferenceSet& ref,
                             const SeedIndex& index,
                             const ReferenceEncoding& encoding);

/// Convenience: build the sharded index + encoding from `ref` on one
/// thread pool (hardware concurrency) and write in one step.  The bytes
/// do not depend on the pool: the radix index build is deterministic.
std::uint64_t BuildAndWriteIndexFile(const std::string& path,
                                     const ReferenceSet& ref,
                                     const SeedConfig& config);
/// Dense single-budget shorthand (k only), the pre-sharding signature.
std::uint64_t BuildAndWriteIndexFile(const std::string& path,
                                     const ReferenceSet& ref, int k);

struct IndexLoadOptions {
  /// Hash the payload and compare against the stored checksums; each
  /// section is verified independently and a mismatch names the corrupt
  /// section.  Costs a full scan of the file, so the default trusts the
  /// header checks.
  bool verify_checksum = false;
};

/// An open, validated, mmap'd index file.  The accessors return views into
/// the mapping — the MappedIndexFile must outlive every ReferenceSet /
/// SeedIndex / encoding view handed out.  Movable, not copyable; the
/// destructor unmaps.
class MappedIndexFile {
 public:
  /// Opens + validates; throws std::runtime_error with a diagnosis of
  /// exactly what is wrong (bad magic, a format version other than
  /// kIndexFormatVersion, a seed mode other than dense, truncation,
  /// checksum or fingerprint mismatch) rather than producing silent
  /// garbage.
  static MappedIndexFile Open(const std::string& path,
                              const IndexLoadOptions& options = {});

  MappedIndexFile(MappedIndexFile&&) noexcept;
  MappedIndexFile& operator=(MappedIndexFile&&) noexcept;
  MappedIndexFile(const MappedIndexFile&) = delete;
  MappedIndexFile& operator=(const MappedIndexFile&) = delete;
  ~MappedIndexFile();

  int k() const { return k_; }
  std::uint64_t reference_fingerprint() const { return ref_fingerprint_; }
  std::uint64_t file_bytes() const { return map_bytes_; }
  std::size_t shard_count() const { return index_.shard_count(); }

  /// View-mode reference over the mapped text + parsed chromosome table.
  const ReferenceSet& reference() const { return reference_; }
  /// View-mode sharded index spanning the mapped CSR arrays.
  const SeedIndex& seed_index() const { return index_; }
  /// Spans over the persisted 2-bit encoding — the preloaded ReadMapper
  /// views it instead of re-encoding the genome.
  const ReferenceEncodingView& encoding() const { return encoding_; }

 private:
  MappedIndexFile() = default;
  void Unmap() noexcept;

  void* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
  int k_ = 0;
  std::uint64_t ref_fingerprint_ = 0;
  ReferenceSet reference_;
  SeedIndex index_;  // view mode, set in Open
  ReferenceEncodingView encoding_;
};

}  // namespace gkgpu

#endif  // GKGPU_IO_INDEX_IO_HPP
