// Golden-file SAM regression: a small multi-chromosome reference and a
// fixed-seed read set are mapped by the blocking mapper and the
// FASTQ-to-SAM stream (at several worker counts), and each output is
// compared byte-for-byte
// against the committed expectation in
// tests/data/multi_chrom_golden.sam — covering the per-chromosome @SQ
// header lines, flags, positions, CIGARs and NM tags.
//
// Regenerating after an intentional output change:
//   GKGPU_UPDATE_GOLDEN=1 ./build/test_sam_golden
// then review the diff of tests/data/multi_chrom_golden.sam and commit it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "filters/gatekeeper.hpp"
#include "io/fastq.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "pipeline/read_to_sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

constexpr int kReadLength = 100;
constexpr int kThreshold = 4;

std::string GoldenPath() {
  return std::string(GKGPU_SOURCE_DIR) + "/tests/data/multi_chrom_golden.sam";
}

ReferenceSet MakeReference() {
  ReferenceSet ref;
  ref.Add("chrA", GenerateGenome(30000, 101));
  ref.Add("chrB", GenerateGenome(20000, 202));
  ref.Add("chrC", GenerateGenome(12000, 303));
  return ref;
}

struct ReadSet {
  std::vector<std::string> seqs;
  std::vector<std::string> names;
};

/// Fixed-seed reads sampled from every chromosome, interleaved so that
/// consecutive reads hit different chromosomes.
ReadSet MakeReads(const ReferenceSet& ref) {
  std::vector<std::vector<SimulatedRead>> per_chrom;
  const std::size_t counts[] = {60, 40, 30};
  for (std::size_t c = 0; c < ref.chromosome_count(); ++c) {
    const ChromosomeInfo& info = ref.chromosome(c);
    per_chrom.push_back(SimulateReads(
        std::string_view(ref.text()).substr(
            static_cast<std::size_t>(info.offset),
            static_cast<std::size_t>(info.length)),
        counts[c], kReadLength, ReadErrorProfile::Illumina(),
        11 * (c + 1)));
  }
  ReadSet rs;
  for (std::size_t i = 0; !per_chrom.empty(); ++i) {
    bool any = false;
    for (const auto& reads : per_chrom) {
      if (i >= reads.size()) continue;
      any = true;
      rs.names.push_back("r" + std::to_string(rs.seqs.size()));
      rs.seqs.push_back(reads[i].seq);
    }
    if (!any) break;
  }
  return rs;
}

struct EngineFixture {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<GateKeeperGpuEngine> engine;

  EngineFixture() {
    devices = gpusim::MakeSetup1(2, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = kReadLength;
    cfg.error_threshold = kThreshold;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, ptrs);
  }
};

/// `threads` sizes the mapper's pool, on which the chunk workers run
/// (0 = hardware concurrency).
MapperConfig MakeMapperConfig(unsigned threads = 0) {
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = kReadLength;
  mcfg.error_threshold = kThreshold;
  mcfg.verify_threads = threads;
  return mcfg;
}

std::string BlockingSam(const ReadSet& rs) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  EngineFixture fx;
  std::vector<MappingRecord> records;
  mapper.MapReads(rs.seqs, fx.engine.get(), &records);
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference());
  WriteSamRecordsMultiChrom(sam, rs.seqs, rs.names, records,
                            mapper.reference());
  return sam.str();
}

std::string StreamingFastqSam(const ReadSet& rs, unsigned threads = 0) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig(threads));
  const GateKeeperFilter gatekeeper;
  std::vector<FastqRecord> fq;
  for (std::size_t i = 0; i < rs.seqs.size(); ++i) {
    fq.push_back({rs.names[i], rs.seqs[i], ""});
  }
  std::stringstream fastq;
  WriteFastq(fastq, fq);
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference());
  pipeline::StreamFastqToSam(fastq, mapper, &gatekeeper,
                             pipeline::ReadToSamConfig{}, &sam);
  return sam.str();
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath(), std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SamGoldenTest, BlockingAndPipelineMatchGoldenByteForByte) {
  const ReadSet rs = MakeReads(MakeReference());
  const std::string blocking = BlockingSam(rs);

  if (std::getenv("GKGPU_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << GoldenPath();
    out << blocking;
    GTEST_SKIP() << "golden file regenerated; review and commit it";
  }

  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << GoldenPath()
      << " — regenerate with GKGPU_UPDATE_GOLDEN=1";

  // Structure sanity before the byte comparison, so a mismatch is easier
  // to localize: the header must carry one @SQ line per chromosome.
  EXPECT_NE(golden.find("@SQ\tSN:chrA\tLN:30000\n"), std::string::npos);
  EXPECT_NE(golden.find("@SQ\tSN:chrB\tLN:20000\n"), std::string::npos);
  EXPECT_NE(golden.find("@SQ\tSN:chrC\tLN:12000\n"), std::string::npos);

  EXPECT_EQ(blocking, golden) << "blocking MapReads SAM drifted";
  EXPECT_EQ(StreamingFastqSam(rs), golden)
      << "FASTQ-to-SAM stream output differs from the golden output";
  // The in-order emitter makes the SAM independent of the worker count.
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(StreamingFastqSam(rs, threads), golden)
        << threads << "-thread pool";
  }
}

TEST(SamGoldenTest, GoldenContainsMappingsOnEveryChromosome) {
  const std::string golden = ReadGolden();
  if (golden.empty()) GTEST_SKIP() << "golden file not generated yet";
  std::size_t on_a = 0;
  std::size_t on_b = 0;
  std::size_t on_c = 0;
  std::istringstream in(golden);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '@') continue;
    std::istringstream fields(line);
    std::string qname, flag, rname;
    fields >> qname >> flag >> rname;
    // Single-end records: forward (0) or reverse-complement (0x10).
    EXPECT_TRUE(flag == "0" || flag == "16") << flag;
    if (rname == "chrA") ++on_a;
    if (rname == "chrB") ++on_b;
    if (rname == "chrC") ++on_c;
  }
  EXPECT_GT(on_a, 0u);
  EXPECT_GT(on_b, 0u);
  EXPECT_GT(on_c, 0u);
}

}  // namespace
}  // namespace gkgpu
