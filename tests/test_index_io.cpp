// Tests for the persistent on-disk index (io/index_io.hpp): byte-exact
// round trips through the mmap'd view types, SAM parity between a mapper
// built from FASTA and one rehydrated from the file, and the rejection
// paths — bad magic, a format version other than 2, a seed mode other
// than dense, truncation, payload corruption, fingerprint tampering, a
// corrupt bucket offset — that keep a stale or damaged index from
// producing silent garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "encode/dna.hpp"
#include "encode/encoded.hpp"
#include "io/index_io.hpp"
#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/fingerprint.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {
namespace {

namespace fs = std::filesystem;

// Small k keeps the offset table (4^k+1 entries) test-sized.
constexpr int kTestK = 6;

ReferenceSet TestReference() {
  ReferenceSet ref;
  ref.Add("chrA", GenerateGenome(5000, 11));
  ref.Add("chrB", GenerateGenome(3000, 12));
  return ref;
}

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("gkgpu_index_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".gki"))
                .string();
    ref_ = TestReference();
    BuildAndWriteIndexFile(path_, ref_, kTestK);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove(path_, ec);
  }

  /// Flips one byte at `offset` in the written file.
  void CorruptByte(std::uint64_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::string path_;
  ReferenceSet ref_;
};

TEST_F(IndexIoTest, RoundTripPreservesEverything) {
  const MappedIndexFile mapped = MappedIndexFile::Open(path_);
  EXPECT_EQ(mapped.k(), kTestK);
  EXPECT_EQ(mapped.reference_fingerprint(), ref_.fingerprint());

  const ReferenceSet& back = mapped.reference();
  ASSERT_EQ(back.chromosome_count(), ref_.chromosome_count());
  for (std::size_t i = 0; i < ref_.chromosome_count(); ++i) {
    EXPECT_EQ(back.chromosome(i).name, ref_.chromosome(i).name);
    EXPECT_EQ(back.chromosome(i).offset, ref_.chromosome(i).offset);
    EXPECT_EQ(back.chromosome(i).length, ref_.chromosome(i).length);
  }
  EXPECT_EQ(back.text(), ref_.text());
  EXPECT_EQ(back.fingerprint(), ref_.fingerprint());

  ASSERT_EQ(mapped.shard_count(), 1u);
  const KmerIndex fresh(ref_.text(), kTestK);
  const KmerIndex& view = mapped.seed_index().shard(0);
  EXPECT_EQ(view.k(), fresh.k());
  EXPECT_EQ(view.genome_length(), fresh.genome_length());
  ASSERT_EQ(view.offsets().size(), fresh.offsets().size());
  EXPECT_TRUE(std::equal(view.offsets().begin(), view.offsets().end(),
                         fresh.offsets().begin()));
  ASSERT_EQ(view.positions().size(), fresh.positions().size());
  EXPECT_TRUE(std::equal(view.positions().begin(), view.positions().end(),
                         fresh.positions().begin()));

  const ReferenceEncoding enc = EncodeReference(ref_.text());
  const ReferenceEncodingView& ev = mapped.encoding();
  EXPECT_EQ(ev.length, enc.length);
  ASSERT_EQ(ev.words.size(), enc.words.size());
  EXPECT_TRUE(
      std::equal(ev.words.begin(), ev.words.end(), enc.words.begin()));
  ASSERT_EQ(ev.n_mask.size(), enc.n_mask.size());
  EXPECT_TRUE(
      std::equal(ev.n_mask.begin(), ev.n_mask.end(), enc.n_mask.begin()));
}

TEST_F(IndexIoTest, PayloadChecksumVerificationPasses) {
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_NO_THROW(MappedIndexFile::Open(path_, options));
}

TEST_F(IndexIoTest, MappedMapperProducesIdenticalSam) {
  const auto reads_sim = SimulateReads(ref_.text(), 300, 64,
                                       ReadErrorProfile::Illumina(), 21);
  std::vector<std::string> reads;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads_sim.size(); ++i) {
    reads.push_back(reads_sim[i].seq);
    names.push_back("r" + std::to_string(i));
  }
  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;

  const auto render = [&](ReadMapper& mapper) {
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, nullptr, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };

  ReadMapper from_fasta(TestReference(), mcfg);
  const std::string golden = render(from_fasta);

  const MappedIndexFile mapped = MappedIndexFile::Open(path_);
  ReadMapper from_index(mapped.reference(), mapped.seed_index().Alias(),
                        mapped.encoding(), mcfg);
  EXPECT_EQ(render(from_index), golden);
  EXPECT_FALSE(golden.empty());
  // The file-viewed encoding is the one the FASTA mapper builds.
  const ReferenceEncodingView& built = from_fasta.encoding();
  const ReferenceEncodingView& viewed = from_index.encoding();
  EXPECT_EQ(viewed.length, built.length);
  EXPECT_TRUE(std::equal(viewed.words.begin(), viewed.words.end(),
                         built.words.begin(), built.words.end()));
  EXPECT_TRUE(std::equal(viewed.n_mask.begin(), viewed.n_mask.end(),
                         built.n_mask.begin(), built.n_mask.end()));
}

TEST_F(IndexIoTest, RejectsBadMagic) {
  CorruptByte(0);
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, RejectsEveryOtherFormatVersionByName) {
  // The format version is the u32 straight after the 8-byte magic.  Only
  // version 2 is read: a version-1 (single-shard) file or a newer one
  // fails before its header checksum is read, naming the version found.
  for (const std::uint32_t version : {1u, kIndexFormatVersion + 7}) {
    SCOPED_TRACE(version);
    BuildAndWriteIndexFile(path_, ref_, kTestK);
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.close();
    try {
      MappedIndexFile::Open(path_);
      ADD_FAILURE() << "opened a version-" << version << " file";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("found format version " + std::to_string(version) +
                          ", but this build reads only version " +
                          std::to_string(kIndexFormatVersion)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("rebuild the index with `gkgpu index`"),
                std::string::npos)
          << what;
    }
  }
}

/// The message Open throws for a v2 file whose seed-mode word is `mode`,
/// written the way an older build wrote a sparse index: the window in the
/// next word and the header checksum re-sealed over both.
std::string SeedModeError(const std::string& path, std::uint32_t mode) {
  constexpr std::size_t kHeaderBytes = 176;
  constexpr std::size_t kSeedModeOffset = 48;  // after magic .. chrom_count
  char header[kHeaderBytes];
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.read(header, kHeaderBytes);
  const std::uint32_t words[2] = {mode, 5};
  std::memcpy(header + kSeedModeOffset, words, sizeof(words));
  std::memset(header + kHeaderBytes - 8, 0, 8);
  const std::uint64_t sum = FingerprintBytes(header, kHeaderBytes);
  std::memcpy(header + kHeaderBytes - 8, &sum, sizeof(sum));
  f.seekp(0);
  f.write(header, kHeaderBytes);
  f.close();
  try {
    MappedIndexFile::Open(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(IndexIoTest, RejectsEveryIndexThatIsNotDense) {
  // Seed mode 1 is an older build's sparse index: the error names that
  // seeder (not the number) and asks for a rebuild.
  const std::string old_sparse = SeedModeError(path_, 1);
  EXPECT_NE(old_sparse.find("built for "), std::string::npos) << old_sparse;
  EXPECT_NE(old_sparse.find(" seeding, which this build does not support"),
            std::string::npos)
      << old_sparse;
  EXPECT_EQ(old_sparse.find("seed mode 1"), std::string::npos) << old_sparse;
  EXPECT_NE(old_sparse.find("rebuild the index with `gkgpu index`"),
            std::string::npos)
      << old_sparse;
  const std::string unknown = SeedModeError(path_, 9);
  EXPECT_NE(unknown.find("built for seed mode 9"), std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("`gkgpu index`"), std::string::npos) << unknown;
  // The dense file itself loads, checksums included.
  BuildAndWriteIndexFile(path_, ref_, kTestK);
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_NO_THROW(MappedIndexFile::Open(path_, options));
}

TEST_F(IndexIoTest, RejectsTruncatedFile) {
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size / 2);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
  // Even a header-only stub must be rejected.
  fs::resize_file(path_, 16);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
}

TEST_F(IndexIoTest, RejectsHeaderTampering) {
  // Flip a byte inside the stored k field: the header checksum (and the
  // derived index fingerprint) no longer match.
  CorruptByte(12);
  EXPECT_THROW(MappedIndexFile::Open(path_), std::runtime_error);
}

TEST_F(IndexIoTest, PayloadCorruptionCaughtByOptInChecksum) {
  const auto size = fs::file_size(path_);
  CorruptByte(size - 9);  // inside the trailing section-checksum table
  // The default load trusts the header checks and still opens...
  EXPECT_NO_THROW(MappedIndexFile::Open(path_));
  // ...while the opt-in full-payload scan catches the damage.
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, ChecksumFailureNamesTheCorruptSection) {
  // The v2 layout is frozen: a 176-byte header, then the chromosome table
  // ((8 + name + 16) bytes per chromosome, 8-byte padded), then the
  // reference text.  Flip a byte well inside the text.
  const std::uint64_t chrom_table_bytes = (8 + 4 + 16) * 2;  // chrA, chrB
  CorruptByte(176 + chrom_table_bytes + 100);
  IndexLoadOptions options;
  options.verify_checksum = true;
  EXPECT_THROW(
      {
        try {
          MappedIndexFile::Open(path_, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("reference-text"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IndexIoTest, CorruptBucketOffsetIsANamedMappingError) {
  // Open checks only the offset table's shape and its first and last
  // entries; the seeder checks each bucket it reads.  Raise the offset of
  // the first seed of a read taken from the genome, in the offsets
  // section of shard 0 (geometry from the header's shard-table offset, a
  // u64 at byte 128, and the entry's offsets offset, a u64 at byte 32).
  const std::string read(ref_.text().substr(1000, 64));
  const std::int64_t code = EncodeKmer(read.data(), kTestK);
  ASSERT_GE(code, 0);
  std::uint64_t shard_table = 0, offsets = 0;
  {
    std::ifstream in(path_, std::ios::binary);
    in.seekg(128);
    in.read(reinterpret_cast<char*>(&shard_table), sizeof(shard_table));
    in.seekg(static_cast<std::streamoff>(shard_table + 32));
    in.read(reinterpret_cast<char*>(&offsets), sizeof(offsets));
  }
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t raised = 0xFFFFFF00u;
    f.seekp(static_cast<std::streamoff>(offsets + 4 * code));
    f.write(reinterpret_cast<const char*>(&raised), sizeof(raised));
  }
  // The opt-in checksum names the section; the default open succeeds.
  IndexLoadOptions verify;
  verify.verify_checksum = true;
  EXPECT_THROW(MappedIndexFile::Open(path_, verify), std::runtime_error);
  const MappedIndexFile mapped = MappedIndexFile::Open(path_);

  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;
  ReadMapper mapper(mapped.reference(), mapped.seed_index().Alias(),
                    mapped.encoding(), mcfg);
  std::vector<MappingRecord> records;
  try {
    mapper.MapReads({read}, nullptr, &records);
    ADD_FAILURE() << "mapped through a corrupt bucket";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("k-mer index shard 0: the bucket of "
                                         "k-mer code " +
                                         std::to_string(code)),
              std::string::npos)
        << e.what();
  }
}

TEST_F(IndexIoTest, MultiShardRoundTripMatchesMonolithicSam) {
  // Force one shard per chromosome and prove the persisted sharded index
  // maps byte-for-byte like the single-shard one.
  SeedConfig scfg;
  scfg.k = kTestK;
  scfg.shard_max_bp = 5000;  // chrA alone fills a shard
  BuildAndWriteIndexFile(path_, ref_, scfg);

  IndexLoadOptions options;
  options.verify_checksum = true;
  const MappedIndexFile mapped = MappedIndexFile::Open(path_, options);
  ASSERT_EQ(mapped.shard_count(), 2u);
  EXPECT_EQ(mapped.seed_index().genome_length(), ref_.text().size());

  const auto reads_sim = SimulateReads(ref_.text(), 300, 64,
                                       ReadErrorProfile::Illumina(), 33);
  std::vector<std::string> reads;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads_sim.size(); ++i) {
    reads.push_back(reads_sim[i].seq);
    names.push_back("r" + std::to_string(i));
  }
  MapperConfig mcfg;
  mcfg.k = kTestK;
  mcfg.read_length = 64;
  mcfg.error_threshold = 3;
  const auto render = [&](ReadMapper& mapper) {
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, nullptr, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };
  ReadMapper monolithic(TestReference(), mcfg);
  ReadMapper sharded(mapped.reference(), mapped.seed_index().Alias(),
                     mapped.encoding(), mcfg);
  const std::string golden = render(monolithic);
  EXPECT_EQ(render(sharded), golden);
  EXPECT_FALSE(golden.empty());
}

TEST_F(IndexIoTest, FileBytesDoNotDependOnThePool) {
  // Two shards, each long enough for several slices of the index build's
  // partition step.
  ReferenceSet ref;
  ref.Add("chrA", GenerateGenome(150000, 13));
  ref.Add("chrB", GenerateGenome(140000, 14));
  SeedConfig scfg;
  scfg.k = 8;
  scfg.shard_max_bp = 150000;
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write = [&](ThreadPool* pool, const std::string& path) {
    WriteIndexFile(path, ref, SeedIndex::Build(ref, scfg, pool),
                   EncodeReference(ref.text(), pool));
    return bytes(path);
  };
  ThreadPool pool(3);
  const std::string serial = write(nullptr, path_);
  EXPECT_EQ(MappedIndexFile::Open(path_).shard_count(), 2u);
  EXPECT_EQ(write(&pool, path_), serial);
  // `gkgpu index`'s path, on its own pool.
  BuildAndWriteIndexFile(path_, ref, scfg);
  EXPECT_EQ(bytes(path_), serial);
}

TEST(IndexFingerprintTest, DistinguishesContentKAndVersion) {
  const std::uint64_t ref_a = FingerprintText("ACGTACGT");
  const std::uint64_t ref_b = FingerprintText("ACGTACGA");
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_b, 12, 1));
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 13, 1));
  EXPECT_NE(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 12, 2));
  EXPECT_EQ(IndexFingerprint(ref_a, 12, 1), IndexFingerprint(ref_a, 12, 1));
}

TEST(ReferenceViewTest, ValidatesTilingAndForbidsMutation) {
  const std::string text = "ACGTACGTGGGG";
  std::vector<ChromosomeInfo> good{{"c1", 0, 8}, {"c2", 8, 4}};
  const ReferenceSet view =
      ReferenceSet::View(good, text, FingerprintText(text));
  EXPECT_EQ(view.text(), text);
  EXPECT_EQ(view.chromosome_count(), 2u);

  std::vector<ChromosomeInfo> gap{{"c1", 0, 8}, {"c2", 9, 3}};
  EXPECT_THROW(ReferenceSet::View(gap, text, 0), std::invalid_argument);
  std::vector<ChromosomeInfo> overrun{{"c1", 0, 8}, {"c2", 8, 5}};
  EXPECT_THROW(ReferenceSet::View(overrun, text, 0), std::invalid_argument);

  ReferenceSet mut = ReferenceSet::View(good, text, FingerprintText(text));
  EXPECT_THROW(mut.Add("c3", "ACGT"), std::logic_error);
}

TEST(IndexIoWriteTest, RefusesEmptyReference) {
  const std::string path =
      (fs::temp_directory_path() / "gkgpu_index_empty.gki").string();
  ReferenceSet empty;
  EXPECT_THROW(BuildAndWriteIndexFile(path, empty, kTestK),
               std::runtime_error);
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace
}  // namespace gkgpu
