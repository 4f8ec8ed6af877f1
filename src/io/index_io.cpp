#include "io/index_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/bitops.hpp"
#include "util/fingerprint.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {

namespace {

// The fixed little-endian header.  All fields naturally aligned; the
// struct is written/read by memcpy, so the layout is the format.  Bumping
// kIndexFormatVersion is mandatory for any change here.  Per-shard CSR
// sections are described by a shard table and a per-section checksum
// table so verification can name the corrupt section.
struct IndexFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t k;
  std::uint64_t genome_length;
  std::uint64_t ref_fingerprint;
  std::uint64_t index_fingerprint;  // IndexFingerprint(ref_fp, k, version)
  std::uint64_t chrom_count;
  // Reserved, both 0.  Older builds wrote seed_mode 1 and a window into
  // `reserved` for a sparse index, which Open rejects.
  std::uint32_t seed_mode;
  std::uint32_t reserved;
  std::uint64_t shard_count;
  std::uint64_t chrom_table_offset, chrom_table_bytes;
  std::uint64_t text_offset, text_bytes;
  std::uint64_t enc_words_offset, enc_words_bytes;
  std::uint64_t n_mask_offset, n_mask_bytes;
  std::uint64_t shard_table_offset, shard_table_bytes;
  std::uint64_t section_checksums_offset, section_checksums_bytes;
  std::uint64_t payload_checksum;  // FNV over every byte after the header
  std::uint64_t header_checksum;   // FNV over the header, this field zeroed
};
static_assert(sizeof(IndexFileHeader) == 176,
              "header layout is the on-disk format; bump "
              "kIndexFormatVersion when it changes");

/// One shard's slice of the genome plus the absolute geometry of its CSR
/// sections — everything needed to mmap this shard independently.
struct ShardTableEntry {
  std::uint64_t chrom_begin, chrom_end;  // [begin, end) chromosome indexes
  std::int64_t text_offset, text_length;
  std::uint64_t offsets_offset, offsets_bytes;
  std::uint64_t positions_offset, positions_bytes;
};
static_assert(sizeof(ShardTableEntry) == 64,
              "shard table entries are the on-disk format");

/// Order of the fixed entries in the section-checksum table; per-shard
/// CSR checksums (offsets chained with positions) follow.
constexpr const char* kFixedSectionNames[] = {
    "chromosome-table", "reference-text", "encoded-reference", "n-mask",
    "shard-table"};
constexpr std::uint64_t kFixedSectionCount = 5;

std::uint64_t HeaderChecksum(IndexFileHeader h) {
  h.header_checksum = 0;
  return FingerprintBytes(&h, sizeof(h));
}

[[noreturn]] void Fail(const std::string& path, const std::string& why) {
  throw std::runtime_error("index file " + path + ": " + why);
}

/// Aligned section sizes so every array starts on an 8-byte boundary.
std::uint64_t AlignUp8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

class SectionWriter {
 public:
  SectionWriter(std::ofstream& out, std::uint64_t header_bytes)
      : out_(out), cursor_(header_bytes) {}

  /// Writes `bytes` of `data` padded to the next 8-byte boundary, folds
  /// them (padding included) into the payload checksum, and returns the
  /// section's file offset.  When `section_sum` is non-null the unpadded
  /// bytes are also chained into it — the per-section checksum the
  /// verifier recomputes straight from the mapping.
  std::uint64_t Write(const void* data, std::uint64_t bytes,
                      std::uint64_t* section_sum = nullptr) {
    const std::uint64_t offset = cursor_;
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
    checksum_ = FingerprintBytes(data, bytes, checksum_);
    if (section_sum != nullptr) {
      *section_sum = FingerprintBytes(data, bytes, *section_sum);
    }
    const std::uint64_t padded = AlignUp8(bytes);
    static constexpr char kZeros[8] = {};
    if (padded != bytes) {
      out_.write(kZeros, static_cast<std::streamsize>(padded - bytes));
      checksum_ = FingerprintBytes(kZeros, padded - bytes, checksum_);
    }
    cursor_ += padded;
    return offset;
  }

  std::uint64_t cursor() const { return cursor_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::ofstream& out_;
  std::uint64_t cursor_;
  std::uint64_t checksum_ = kFingerprintSeed;
};

std::uint64_t ExpectedOffsetsBytes(int k) {
  return ((std::uint64_t{1} << (2 * k)) + 1) * sizeof(std::uint32_t);
}

/// Per chromosome: u64 name length, the name bytes, i64 offset + i64
/// length.
std::string SerializeChromTable(const ReferenceSet& ref) {
  std::string chrom_table;
  for (const ChromosomeInfo& c : ref.chromosomes()) {
    const std::uint64_t name_len = c.name.size();
    chrom_table.append(reinterpret_cast<const char*>(&name_len),
                       sizeof(name_len));
    chrom_table.append(c.name);
    chrom_table.append(reinterpret_cast<const char*>(&c.offset),
                       sizeof(c.offset));
    chrom_table.append(reinterpret_cast<const char*>(&c.length),
                       sizeof(c.length));
  }
  return chrom_table;
}

std::vector<ChromosomeInfo> ParseChromTable(const std::string& path,
                                            const char* data,
                                            std::uint64_t bytes,
                                            std::uint64_t count) {
  std::vector<ChromosomeInfo> chroms;
  chroms.reserve(count);
  std::uint64_t cur = 0;
  const auto take = [&](void* out, std::uint64_t n) {
    if (cur + n > bytes) {
      Fail(path, "truncated or corrupt: chromosome-table entries exceed "
                 "their section");
    }
    std::memcpy(out, data + cur, n);
    cur += n;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t name_len = 0;
    take(&name_len, sizeof(name_len));
    if (name_len == 0 || name_len > bytes) {
      Fail(path, "corrupt chromosome name length");
    }
    ChromosomeInfo c;
    c.name.resize(name_len);
    take(c.name.data(), name_len);
    take(&c.offset, sizeof(c.offset));
    take(&c.length, sizeof(c.length));
    chroms.push_back(std::move(c));
  }
  return chroms;
}

}  // namespace

std::uint64_t WriteIndexFile(const std::string& path, const ReferenceSet& ref,
                             const SeedIndex& index,
                             const ReferenceEncoding& encoding) {
  if (ref.empty()) Fail(path, "refusing to write an empty reference");
  if (index.shard_count() == 0 ||
      index.genome_length() != static_cast<std::size_t>(ref.length()) ||
      encoding.length != ref.length()) {
    Fail(path, "index/encoding were not built from this reference");
  }

  const std::string chrom_table = SerializeChromTable(ref);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) Fail(path, "cannot open for writing");

  IndexFileHeader h{};
  std::memcpy(h.magic, kIndexMagic, sizeof(kIndexMagic));
  h.version = kIndexFormatVersion;
  h.k = static_cast<std::uint32_t>(index.k());
  h.genome_length = static_cast<std::uint64_t>(ref.length());
  h.ref_fingerprint = ref.fingerprint();
  h.index_fingerprint =
      IndexFingerprint(h.ref_fingerprint, index.k(), h.version);
  h.chrom_count = ref.chromosome_count();
  h.shard_count = index.shard_count();

  out.write(reinterpret_cast<const char*>(&h),
            static_cast<std::streamsize>(sizeof(h)));

  SectionWriter w(out, sizeof(h));
  std::vector<std::uint64_t> sums;  // the section-checksum table
  const auto fixed_section = [&](const void* data, std::uint64_t bytes,
                                 std::uint64_t* offset,
                                 std::uint64_t* size) {
    std::uint64_t sum = kFingerprintSeed;
    *size = bytes;
    *offset = w.Write(data, bytes, &sum);
    sums.push_back(sum);
  };
  const std::string_view text = ref.text();
  fixed_section(chrom_table.data(), chrom_table.size(),
                &h.chrom_table_offset, &h.chrom_table_bytes);
  fixed_section(text.data(), text.size(), &h.text_offset, &h.text_bytes);
  fixed_section(encoding.words.data(), encoding.words.size() * sizeof(Word),
                &h.enc_words_offset, &h.enc_words_bytes);
  fixed_section(encoding.n_mask.data(), encoding.n_mask.size() * sizeof(Word),
                &h.n_mask_offset, &h.n_mask_bytes);

  // Per-shard CSR sections stream first; the shard table describing them
  // follows, then the checksum table (its own integrity rides on the
  // whole-payload checksum).
  const std::size_t n = index.shard_count();
  std::vector<ShardTableEntry> entries(n);
  std::vector<std::uint64_t> shard_sums(n);
  for (std::size_t s = 0; s < n; ++s) {
    const ShardInfo& info = index.plan().shard(s);
    const KmerIndex& shard = index.shard(s);
    ShardTableEntry& e = entries[s];
    e.chrom_begin = info.chrom_begin;
    e.chrom_end = info.chrom_end;
    e.text_offset = info.text_offset;
    e.text_length = info.text_length;
    std::uint64_t sum = kFingerprintSeed;
    const auto offsets = shard.offsets();
    const auto positions = shard.positions();
    e.offsets_bytes = offsets.size_bytes();
    e.offsets_offset = w.Write(offsets.data(), offsets.size_bytes(), &sum);
    e.positions_bytes = positions.size_bytes();
    e.positions_offset =
        w.Write(positions.data(), positions.size_bytes(), &sum);
    shard_sums[s] = sum;
  }
  fixed_section(entries.data(), entries.size() * sizeof(ShardTableEntry),
                &h.shard_table_offset, &h.shard_table_bytes);
  sums.insert(sums.end(), shard_sums.begin(), shard_sums.end());
  h.section_checksums_bytes = sums.size() * sizeof(std::uint64_t);
  h.section_checksums_offset =
      w.Write(sums.data(), h.section_checksums_bytes);
  h.payload_checksum = w.checksum();
  h.header_checksum = HeaderChecksum(h);

  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&h),
            static_cast<std::streamsize>(sizeof(h)));
  out.flush();
  if (!out) Fail(path, "write failed (disk full?)");
  return w.cursor();
}

std::uint64_t BuildAndWriteIndexFile(const std::string& path,
                                     const ReferenceSet& ref,
                                     const SeedConfig& config) {
  if (ref.empty()) Fail(path, "refusing to write an empty reference");
  ThreadPool pool(0, "gkgpu-index");
  const SeedIndex index = SeedIndex::Build(ref, config, &pool);
  const ReferenceEncoding encoding = EncodeReference(ref.text(), &pool);
  return WriteIndexFile(path, ref, index, encoding);
}

std::uint64_t BuildAndWriteIndexFile(const std::string& path,
                                     const ReferenceSet& ref, int k) {
  SeedConfig config;
  config.k = k;
  return BuildAndWriteIndexFile(path, ref, config);
}

MappedIndexFile MappedIndexFile::Open(const std::string& path,
                                      const IndexLoadOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) Fail(path, std::string("cannot open: ") + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    Fail(path, std::string("fstat failed: ") + std::strerror(err));
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(IndexFileHeader)) {
    ::close(fd);
    Fail(path, "truncated: smaller than the index header");
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_err = errno;
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    Fail(path, std::string("mmap failed: ") + std::strerror(map_err));
  }

  MappedIndexFile f;
  f.map_ = map;
  f.map_bytes_ = file_bytes;
  const char* base = static_cast<const char*>(map);

  IndexFileHeader h{};
  std::memcpy(&h, base, sizeof(h));
  if (std::memcmp(h.magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    Fail(path, "bad magic (not a GKGPUIDX index file)");
  }
  if (h.version != kIndexFormatVersion) {
    Fail(path, "found format version " + std::to_string(h.version) +
                   ", but this build reads only version " +
                   std::to_string(kIndexFormatVersion) +
                   " — rebuild the index with `gkgpu index`");
  }
  const auto section = [&](std::uint64_t offset, std::uint64_t bytes,
                           const std::string& what) -> const char* {
    if (offset < sizeof(h) || offset % 8 != 0 || bytes > file_bytes ||
        offset > file_bytes - bytes) {
      Fail(path,
           "truncated or corrupt: " + what + " section exceeds the file");
    }
    return base + offset;
  };

  if (HeaderChecksum(h) != h.header_checksum) {
    Fail(path, "header checksum mismatch (corrupt header)");
  }
  if (h.k < 4 || h.k > 14) {
    Fail(path, "seed length k=" + std::to_string(h.k) + " out of range");
  }
  if (h.genome_length == 0) {
    Fail(path, "genome length out of range");
  }
  // The seed-mode word is reserved (0, dense): older builds wrote 1 for a
  // (w,k) minimizer index, whose sparse CSR dense seeding cannot use.
  if (h.seed_mode != 0) {
    const std::string mode = h.seed_mode == 1
                                 ? std::string("minimizer seeding")
                                 : "seed mode " + std::to_string(h.seed_mode);
    Fail(path, "built for " + mode +
                   ", which this build does not support; only dense k-mer "
                   "indexes load — rebuild the index with `gkgpu index`");
  }
  if (h.index_fingerprint !=
      IndexFingerprint(h.ref_fingerprint, static_cast<int>(h.k), h.version)) {
    Fail(path, "fingerprint mismatch: the index does not correspond to the "
               "reference it claims to cover");
  }
  if (h.shard_count == 0 ||
      h.shard_count > file_bytes / sizeof(ShardTableEntry) ||
      h.shard_table_bytes != h.shard_count * sizeof(ShardTableEntry)) {
    Fail(path, "shard table has the wrong size for its shard count");
  }
  if (h.section_checksums_bytes !=
      (kFixedSectionCount + h.shard_count) * sizeof(std::uint64_t)) {
    Fail(path, "section-checksum table has the wrong size");
  }

  const char* chrom_table = section(h.chrom_table_offset, h.chrom_table_bytes,
                                    "chromosome-table");
  const char* text = section(h.text_offset, h.text_bytes, "reference-text");
  const char* enc_raw =
      section(h.enc_words_offset, h.enc_words_bytes, "encoded-reference");
  const char* nmask_raw = section(h.n_mask_offset, h.n_mask_bytes, "n-mask");
  const char* shard_table_raw =
      section(h.shard_table_offset, h.shard_table_bytes, "shard-table");
  const char* sums_raw = section(h.section_checksums_offset,
                                 h.section_checksums_bytes,
                                 "section-checksum-table");

  if (h.text_bytes != h.genome_length) {
    Fail(path, "reference-text section does not match the genome length");
  }
  if (h.enc_words_bytes !=
          ((h.genome_length + kBasesPerWord - 1) / kBasesPerWord) *
              sizeof(Word) ||
      h.n_mask_bytes !=
          ((h.genome_length + kWordBits - 1) / kWordBits) * sizeof(Word)) {
    Fail(path, "section sizes are inconsistent with the genome length");
  }

  std::vector<ShardTableEntry> entries(h.shard_count);
  std::memcpy(entries.data(), shard_table_raw, h.shard_table_bytes);
  for (std::uint64_t s = 0; s < h.shard_count; ++s) {
    const ShardTableEntry& e = entries[s];
    const std::string name = "shard-" + std::to_string(s);
    if (e.offsets_bytes != ExpectedOffsetsBytes(static_cast<int>(h.k))) {
      Fail(path, name + " kmer-offset table has the wrong size for k=" +
                     std::to_string(h.k));
    }
    if (e.positions_bytes % sizeof(std::uint32_t) != 0) {
      Fail(path, name + " kmer-positions section is misaligned");
    }
    (void)section(e.offsets_offset, e.offsets_bytes, name + " kmer-offsets");
    (void)section(e.positions_offset, e.positions_bytes,
                  name + " kmer-positions");
  }

  if (options.verify_checksum) {
    // Per-section verification: a mismatch names the section.
    std::vector<std::uint64_t> stored(kFixedSectionCount + h.shard_count);
    std::memcpy(stored.data(), sums_raw, h.section_checksums_bytes);
    const char* fixed_data[kFixedSectionCount] = {chrom_table, text, enc_raw,
                                                  nmask_raw, shard_table_raw};
    const std::uint64_t fixed_bytes[kFixedSectionCount] = {
        h.chrom_table_bytes, h.text_bytes, h.enc_words_bytes, h.n_mask_bytes,
        h.shard_table_bytes};
    for (std::uint64_t i = 0; i < kFixedSectionCount; ++i) {
      if (FingerprintBytes(fixed_data[i], fixed_bytes[i]) != stored[i]) {
        Fail(path, std::string("checksum mismatch in section '") +
                       kFixedSectionNames[i] + "' (corrupt index data)");
      }
    }
    for (std::uint64_t s = 0; s < h.shard_count; ++s) {
      const ShardTableEntry& e = entries[s];
      std::uint64_t sum = FingerprintBytes(base + e.offsets_offset,
                                           e.offsets_bytes);
      sum = FingerprintBytes(base + e.positions_offset, e.positions_bytes,
                             sum);
      if (sum != stored[kFixedSectionCount + s]) {
        Fail(path, "checksum mismatch in section 'shard-" +
                       std::to_string(s) + "-csr' (corrupt index data)");
      }
    }
    const std::uint64_t payload =
        FingerprintBytes(base + sizeof(h), file_bytes - sizeof(h));
    if (payload != h.payload_checksum) {
      Fail(path, "payload checksum mismatch (corrupt index data)");
    }
  }

  try {
    f.reference_ = ReferenceSet::View(
        ParseChromTable(path, chrom_table, h.chrom_table_bytes,
                        h.chrom_count),
        std::string_view(text, h.text_bytes), h.ref_fingerprint);
    std::vector<ShardInfo> infos;
    infos.reserve(entries.size());
    std::vector<KmerIndex> shards;
    shards.reserve(entries.size());
    for (const ShardTableEntry& e : entries) {
      infos.push_back(ShardInfo{static_cast<std::size_t>(e.chrom_begin),
                                static_cast<std::size_t>(e.chrom_end),
                                e.text_offset, e.text_length});
      shards.push_back(KmerIndex::View(
          static_cast<int>(h.k), static_cast<std::size_t>(e.text_length),
          std::span<const std::uint32_t>(
              reinterpret_cast<const std::uint32_t*>(base + e.offsets_offset),
              e.offsets_bytes / sizeof(std::uint32_t)),
          std::span<const std::uint32_t>(
              reinterpret_cast<const std::uint32_t*>(base +
                                                     e.positions_offset),
              e.positions_bytes / sizeof(std::uint32_t))));
    }
    f.index_ = SeedIndex::View(
        ShardPlan::FromShards(std::move(infos), f.reference_),
        std::move(shards));
  } catch (const std::invalid_argument& e) {
    Fail(path, std::string("corrupt index structure: ") + e.what());
  }
  f.encoding_ = ReferenceEncodingView{
      static_cast<std::int64_t>(h.genome_length),
      std::span<const Word>(reinterpret_cast<const Word*>(enc_raw),
                            h.enc_words_bytes / sizeof(Word)),
      std::span<const Word>(reinterpret_cast<const Word*>(nmask_raw),
                            h.n_mask_bytes / sizeof(Word))};
  f.k_ = static_cast<int>(h.k);
  f.ref_fingerprint_ = h.ref_fingerprint;
  return f;
}

MappedIndexFile::MappedIndexFile(MappedIndexFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      k_(other.k_),
      ref_fingerprint_(other.ref_fingerprint_),
      reference_(std::move(other.reference_)),
      index_(std::move(other.index_)),
      encoding_(other.encoding_) {}

MappedIndexFile& MappedIndexFile::operator=(MappedIndexFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    k_ = other.k_;
    ref_fingerprint_ = other.ref_fingerprint_;
    reference_ = std::move(other.reference_);
    index_ = std::move(other.index_);
    encoding_ = other.encoding_;
  }
  return *this;
}

MappedIndexFile::~MappedIndexFile() { Unmap(); }

void MappedIndexFile::Unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
}

}  // namespace gkgpu
