// Integration tests for the mrFAST-like mapper and its GateKeeper-GPU
// integration: the k-mer index, pigeonhole seeding, verification, and the
// paper's headline invariant — filtering loses no mappings while slashing
// the number of pairs entering verification.
#include "mapper/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "encode/revcomp.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {
namespace {

struct MapperFixture {
  std::string genome;
  std::vector<std::string> reads;
  MapperConfig config;

  static MapperFixture Make(int read_length, int e, std::size_t n_reads,
                            std::uint64_t seed) {
    MapperFixture f;
    GenomeProfile gp;
    gp.n_runs_per_mb = 1.0;
    f.genome = GenerateGenome(400000, seed, gp);
    ReadErrorProfile ep;
    ep.sub_rate = 0.01;
    ep.ins_rate = 0.001;
    ep.del_rate = 0.001;
    f.reads = SimulateReadSequences(f.genome, n_reads, read_length, ep,
                                    seed + 1);
    f.config.k = 10;
    f.config.read_length = read_length;
    f.config.error_threshold = e;
    f.config.verify_threads = 4;
    return f;
  }
};

TEST(KmerIndexTest, FindsAllOccurrences) {
  const std::string genome = "ACGTACGTACGTTTTTACGT";
  KmerIndex index(genome, 4);
  const auto hits = index.Lookup("ACGT");
  std::vector<std::uint32_t> positions(hits.begin(), hits.end());
  std::sort(positions.begin(), positions.end());
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{0, 4, 8, 16}));
  EXPECT_TRUE(index.Lookup("AAAA").empty());
  EXPECT_EQ(index.Lookup("TTTT").size(), 2u);  // positions 11, 12
}

TEST(KmerIndexTest, SkipsKmersWithN) {
  const std::string genome = "ACGTNACGT";
  KmerIndex index(genome, 4);
  EXPECT_EQ(index.Lookup("ACGT").size(), 2u);  // 0 and 5
  EXPECT_TRUE(index.Lookup("CGTN").empty());
  EXPECT_TRUE(index.Lookup("GTNA").empty());
}

TEST(KmerIndexTest, LookupMatchesBruteForceScan) {
  const std::string genome = GenerateGenome(20000, 3);
  KmerIndex index(genome, 8);
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    const std::size_t pos = rng.Uniform(genome.size() - 8);
    const std::string kmer = genome.substr(pos, 8);
    if (kmer.find('N') != std::string::npos) continue;
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i + 8 <= genome.size(); ++i) {
      if (genome.compare(i, 8, kmer) == 0) {
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
    const auto hits = index.Lookup(kmer);
    std::vector<std::uint32_t> got(hits.begin(), hits.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << kmer;
  }
}

/// The CSR arrays by brute force: every k-mer start whose k bases are all
/// known, bucketed by code and ascending within each bucket.
void ExpectMatchesBruteForce(const std::string& genome, int k,
                             const KmerIndex& index) {
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits;  // (code, start)
  for (std::size_t i = 0; i + kk <= genome.size(); ++i) {
    std::uint64_t code = 0;
    bool known = true;
    for (std::size_t j = 0; j < kk && known; ++j) {
      const char base = static_cast<char>(
          std::toupper(static_cast<unsigned char>(genome[i + j])));
      const std::size_t c = std::string_view("ACGT").find(base);
      known = c != std::string_view::npos;
      code = code * 4 + (known ? c : 0);
    }
    if (known) hits.emplace_back(code, static_cast<std::uint32_t>(i));
  }
  std::stable_sort(
      hits.begin(), hits.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  const auto offsets = index.offsets();
  const auto positions = index.positions();
  ASSERT_EQ(offsets.size(), (std::size_t{1} << (2 * k)) + 1);
  ASSERT_EQ(positions.size(), hits.size());
  std::size_t h = 0;
  for (std::size_t code = 0; code + 1 < offsets.size(); ++code) {
    ASSERT_EQ(offsets[code], h) << "k=" << k << " bucket " << code;
    for (; h < hits.size() && hits[h].first == code; ++h) {
      ASSERT_EQ(positions[h], hits[h].second) << "k=" << k << " entry " << h;
    }
  }
  EXPECT_EQ(offsets.back(), hits.size());
}

/// Genomes that stress the radix build's edges at `k`.  Slices of the
/// partition step are 65,536 k-mer starts long on genomes this size.
std::vector<std::pair<std::string, std::string>> IndexEdgeGenomes(int k) {
  std::vector<std::pair<std::string, std::string>> genomes;
  const std::string bases = "ACGTTGCAACGTTG";
  genomes.emplace_back("shorter than k",
                       bases.substr(0, static_cast<std::size_t>(k - 1)));
  genomes.emplace_back("exactly k",
                       bases.substr(0, static_cast<std::size_t>(k)));
  std::string every7 = GenerateGenome(20000, 41);
  for (std::size_t i = 6; i < every7.size(); i += 7) every7[i] = 'N';
  genomes.emplace_back("N every 7th base", std::move(every7));
  std::string boundary = GenerateGenome(3 * 65536 + 5000, 42);
  for (std::size_t i = 65530; i < 65560; ++i) boundary[i] = 'N';
  boundary[2 * 65536] = 'N';
  genomes.emplace_back("N runs across slice boundaries", std::move(boundary));
  genomes.emplace_back("60 kbp of one base", std::string(60000, 'T'));
  std::string lower = GenerateGenome(30000, 43);
  for (std::size_t i = 0; i < lower.size(); i += 3) {
    lower[i] = static_cast<char>(std::tolower(lower[i]));
  }
  genomes.emplace_back("lowercase bases", std::move(lower));
  return genomes;
}

TEST(KmerIndexTest, CsrMatchesBruteForceOnEdgeGenomes) {
  for (const int k : {4, 8, 12}) {
    for (const auto& [name, genome] : IndexEdgeGenomes(k)) {
      SCOPED_TRACE(name + ", k=" + std::to_string(k));
      ExpectMatchesBruteForce(genome, k, KmerIndex(genome, k));
    }
  }
}

TEST(KmerIndexTest, CsrDoesNotDependOnTheWorkerCount) {
  std::string genome = GenerateGenome(5 * 65536 + 777, 44);
  for (std::size_t i = 1000; i < genome.size(); i += 9973) genome[i] = 'N';
  for (const int k : {8, 12}) {
    const KmerIndex serial(genome, k);
    ExpectMatchesBruteForce(genome, k, serial);
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      ThreadPool pool(threads);
      const KmerIndex pooled(genome, k, &pool);
      EXPECT_TRUE(std::ranges::equal(pooled.offsets(), serial.offsets()))
          << "k=" << k << ", " << threads << " threads";
      EXPECT_TRUE(std::ranges::equal(pooled.positions(), serial.positions()))
          << "k=" << k << ", " << threads << " threads";
    }
  }
}

TEST(KmerIndexTest, RejectsKOutsideItsRangeByName) {
  for (const int k : {-1, 0, 3, 15, 32}) {
    try {
      const KmerIndex index("ACGTACGTACGTACGTACGT", k);
      ADD_FAILURE() << "k=" << k << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("k = " + std::to_string(k)),
                std::string::npos)
          << e.what();
    }
  }
  const std::vector<std::uint32_t> offsets(2, 0);
  EXPECT_THROW(KmerIndex::View(15, 0, offsets, {}), std::invalid_argument);
}

TEST(MapperTest, MapsErrorFreeReadsToTheirOrigin) {
  const std::string genome = GenerateGenome(200000, 7);
  ReadErrorProfile clean{0.0, 0.0, 0.0, 0.0};
  const auto sim = SimulateReads(genome, 100, 100, clean, 9);
  std::vector<std::string> reads;
  for (const auto& r : sim) reads.push_back(r.seq);
  MapperConfig cfg;
  cfg.k = 10;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  cfg.verify_threads = 4;
  ReadMapper mapper(genome, cfg);
  std::vector<MappingRecord> records;
  const MappingStats stats = mapper.MapReads(reads, nullptr, &records);
  EXPECT_EQ(stats.mapped_reads, reads.size());
  // Every read's true origin must be among its reported mappings.
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const bool found = std::any_of(
        records.begin(), records.end(), [&](const MappingRecord& m) {
          return m.read_index == i && m.pos == sim[i].origin;
        });
    EXPECT_TRUE(found) << "read " << i;
  }
}

TEST(MapperTest, CandidatesContainTrueOriginForCleanReads) {
  // Each clean read, forward and reverse-complemented, keeps its origin
  // among the voted candidates of its strand.
  const std::string genome = GenerateGenome(100000, 11);
  ReadErrorProfile clean{0.0, 0.0, 0.0, 0.0};
  const auto sim = SimulateReads(genome, 50, 100, clean, 13);
  MapperConfig cfg;
  cfg.k = 10;
  cfg.read_length = 100;
  cfg.error_threshold = 3;
  ReadMapper mapper(genome, cfg);
  std::vector<std::string> reads;
  for (const auto& r : sim) reads.push_back(r.seq);
  for (const auto& r : sim) reads.push_back(ReverseComplement(r.seq));
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  SeedChunk chunk;
  for (std::size_t c0 = 0; c0 < views.size(); c0 += kSeedChunkReads) {
    const std::size_t n = std::min(kSeedChunkReads, views.size() - c0);
    mapper.SeedReads(std::span(views).subspan(c0, n), &chunk, SeedVote::kOn);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = c0 + j;
      const std::int64_t origin = sim[i % sim.size()].origin;
      const std::uint8_t strand = i < sim.size() ? 0 : 1;
      const auto cands = chunk.candidates(j);
      const bool found = std::any_of(
          cands.begin(), cands.end(), [&](const OrientedCandidate& c) {
            return c.pos == origin && c.strand == strand;
          });
      EXPECT_TRUE(found) << "read " << i << " origin " << origin;
    }
  }
}

class MapperFilterIntegration : public ::testing::TestWithParam<int> {};

TEST_P(MapperFilterIntegration, FilterLosesNoMappingsAndReducesWork) {
  const int setup = GetParam();
  MapperFixture f = MapperFixture::Make(100, 3, 400, 17);
  ReadMapper mapper(f.genome, f.config);

  std::vector<MappingRecord> unfiltered;
  const MappingStats no_filter = mapper.MapReads(f.reads, nullptr, &unfiltered);

  auto devices =
      setup == 1 ? gpusim::MakeSetup1(1, 4) : gpusim::MakeSetup2(1, 4);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  EngineConfig ecfg;
  ecfg.read_length = f.config.read_length;
  ecfg.error_threshold = f.config.error_threshold;
  GateKeeperGpuEngine engine(ecfg, ptrs);
  std::vector<MappingRecord> filtered;
  const MappingStats with_filter = mapper.MapReads(f.reads, &engine, &filtered);

  // The paper's Table 3 invariant: identical mappings and mapped reads.
  EXPECT_EQ(with_filter.mappings, no_filter.mappings);
  EXPECT_EQ(with_filter.mapped_reads, no_filter.mapped_reads);
  ASSERT_EQ(filtered.size(), unfiltered.size());
  auto key = [](const MappingRecord& m) {
    return std::make_tuple(m.read_index, m.pos, m.edit_distance);
  };
  auto sorted = [&](std::vector<MappingRecord> v) {
    std::sort(v.begin(), v.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    return v;
  };
  const auto a = sorted(filtered);
  const auto b = sorted(unfiltered);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i])) << i;
  }

  // And far fewer pairs entered verification.
  EXPECT_EQ(no_filter.verification_pairs, no_filter.candidates_total);
  EXPECT_LT(with_filter.verification_pairs, no_filter.verification_pairs);
  EXPECT_EQ(with_filter.verification_pairs + with_filter.rejected_pairs,
            with_filter.candidates_total);
  EXPECT_GT(with_filter.ReductionPercent(), 20.0);
}

INSTANTIATE_TEST_SUITE_P(BothSetups, MapperFilterIntegration,
                         ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Setup" + std::to_string(info.param);
                         });

TEST(MapperTest, BatchSizeDoesNotChangeResults) {
  MapperFixture f = MapperFixture::Make(100, 2, 300, 23);
  auto devices = gpusim::MakeSetup1(1, 4);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  std::vector<std::uint64_t> mapping_counts;
  for (const std::size_t batch : {64u, 128u, 100000u}) {
    EngineConfig ecfg;
    ecfg.read_length = f.config.read_length;
    ecfg.error_threshold = f.config.error_threshold;
    ecfg.max_reads_per_batch = batch;
    GateKeeperGpuEngine engine(ecfg, ptrs);
    ReadMapper mapper(f.genome, f.config);
    const MappingStats s = mapper.MapReads(f.reads, &engine, nullptr);
    mapping_counts.push_back(s.mappings);
  }
  EXPECT_EQ(mapping_counts[0], mapping_counts[1]);
  EXPECT_EQ(mapping_counts[1], mapping_counts[2]);
}

// ---------------------------------------------------- strand awareness --

TEST(MapperTest, ReverseStrandReadsMapAtParityWithForwardReads) {
  // Reads drawn from the reverse strand are the reverse complements of
  // forward-strand reads; strand-aware seeding must map both sets at
  // exactly the same rate (the oriented comparison sets are identical).
  MapperFixture f = MapperFixture::Make(100, 3, 300, 41);
  std::vector<std::string> reverse_reads;
  reverse_reads.reserve(f.reads.size());
  for (const std::string& r : f.reads) {
    reverse_reads.push_back(ReverseComplement(r));
  }
  ReadMapper mapper(f.genome, f.config);

  std::vector<MappingRecord> fwd_records;
  std::vector<MappingRecord> rev_records;
  const MappingStats fwd = mapper.MapReads(f.reads, nullptr, &fwd_records);
  const MappingStats rev =
      mapper.MapReads(reverse_reads, nullptr, &rev_records);

  EXPECT_GT(fwd.mapped_reads, 0u);
  EXPECT_EQ(rev.mapped_reads, fwd.mapped_reads);
  EXPECT_EQ(rev.mappings, fwd.mappings);
  EXPECT_EQ(rev.candidates_total, fwd.candidates_total);

  // Every mapping flips strand between the two runs but keeps its locus.
  ASSERT_EQ(fwd_records.size(), rev_records.size());
  auto key = [](const MappingRecord& m) {
    return std::make_tuple(m.read_index, m.pos, m.edit_distance, m.strand);
  };
  auto sorted = [&](std::vector<MappingRecord> v) {
    std::sort(v.begin(), v.end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    return v;
  };
  const auto a = sorted(fwd_records);
  auto b = rev_records;
  for (auto& m : b) m.strand = m.strand == 0 ? 1 : 0;  // undo the flip
  b = sorted(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i])) << i;
  }
}

TEST(MapperTest, ReverseStrandMappingEmitsFlag16AndRevCompSeq) {
  const std::string genome = GenerateGenome(100000, 47);
  // An exact reverse-strand read: rc of a forward window.
  const std::int64_t origin = 5000;
  const std::string window = genome.substr(origin, 100);
  ASSERT_EQ(window.find('N'), std::string::npos);
  const std::string read = ReverseComplement(window);
  MapperConfig cfg;
  cfg.k = 10;
  cfg.read_length = 100;
  cfg.error_threshold = 2;
  ReadMapper mapper(genome, cfg);
  std::vector<MappingRecord> records;
  mapper.MapReads({read}, nullptr, &records);
  ASSERT_FALSE(records.empty());
  const auto at_origin =
      std::find_if(records.begin(), records.end(),
                   [&](const MappingRecord& m) { return m.pos == origin; });
  ASSERT_NE(at_origin, records.end());
  EXPECT_EQ(at_origin->strand, 1);
  EXPECT_EQ(at_origin->edit_distance, 0);

  std::ostringstream out;
  WriteSamRecordsMultiChrom(out, {read}, {"rev_read"}, {*at_origin},
                            mapper.reference());
  const std::string sam = out.str();
  // FLAG 0x10, POS origin+1, a computed MAPQ (unique exact placement =
  // the cap), and the reverse-complemented SEQ (= the forward window the
  // read came from).
  EXPECT_NE(sam.find("rev_read\t16\tsynthetic_chr1\t5001\t60\t100M"),
            std::string::npos)
      << sam;
  EXPECT_NE(sam.find(window), std::string::npos) << sam;
}

TEST(KmerIndexTest, MaxGenomeLengthGuardsUint32Positions) {
  // The guard itself needs a >4 Gbp allocation to trip, so assert the
  // bound is exactly the uint32 ceiling the CSR payload can address.
  static_assert(KmerIndex::kMaxGenomeLength ==
                std::numeric_limits<std::uint32_t>::max());
  SUCCEED();
}

TEST(SamTest, CigarVariantEmitsRealAlignments) {
  const std::string genome = GenerateGenome(50000, 31);
  // A read with one deletion relative to the genome, mapped at its origin.
  std::string read = genome.substr(1000, 101);
  read.erase(50, 1);  // 100 bp read, one base missing
  const ReferenceSet ref("chrS", genome);
  std::ostringstream out;
  WriteSamRecordsMultiChrom(out, {read}, {}, {{0, 1000, 2}}, ref);
  const std::string sam = out.str();
  EXPECT_NE(sam.find("D"), std::string::npos) << sam;  // real deletion op
  EXPECT_NE(sam.find("NM:i:2"), std::string::npos);
}

TEST(SamTest, WritesWellFormedRecords) {
  // The window at 41 is two substitutions from the read.
  const ReferenceSet ref("chrS", std::string(41, 'T') + "ACGAACGA" +
                                     std::string(951, 'T'));
  std::ostringstream out;
  WriteSamHeader(out, ref);
  WriteSamRecordsMultiChrom(out, {"ACGTACGT"}, {}, {{0, 41, 2}}, ref);
  const std::string sam = out.str();
  EXPECT_NE(sam.find("@SQ\tSN:chrS\tLN:1000"), std::string::npos);
  // A unique placement with 2 residual edits: MAPQ = cap - 2 * edit
  // discount, never the old 255 placeholder.
  EXPECT_NE(sam.find("read0\t0\tchrS\t42\t52\t8M\t*\t0\t0\tACGTACGT"),
            std::string::npos);
  EXPECT_NE(sam.find("NM:i:2"), std::string::npos);
}

TEST(SamTest, AppendSamFormatsEveryField) {
  // A reverse second mate at a position past 2^31 (chromosomes may reach
  // 4 Gbp), its mate on the same chromosome: negative TLEN, RNEXT "=",
  // NM:i:0 and a read group.
  SamRecord mate;
  mate.qname = "pair_7/2";
  mate.flags = kSamPaired | kSamProperPair | kSamReverse | kSamSecondInPair;
  mate.rname = "chr1";
  mate.pos = 3'000'000'000;
  mate.mapq = 60;
  mate.cigar = "50M1I49M";
  mate.rnext = "=";
  mate.pnext = 2'999'999'650;
  mate.tlen = -450;
  mate.seq = "ACGT";
  mate.qual = "IIII";
  mate.nm = 0;
  mate.read_group = "rg1";
  // An unplaced record: POS -1 written 0, MAPQ 0, no NM (nm < 0), no RG,
  // RNEXT a chromosome name with PNEXT the last base of a 4 Gbp one.
  SamRecord unplaced;
  unplaced.qname = "r2";
  unplaced.flags = kSamUnmapped;
  unplaced.rnext = "chr2";
  unplaced.pnext = 4'294'967'294;

  std::string sam = "@HD\n";
  AppendSam(&sam, mate);
  AppendSam(&sam, unplaced);
  EXPECT_EQ(sam,
            "@HD\n"
            "pair_7/2\t147\tchr1\t3000000001\t60\t50M1I49M\t=\t"
            "2999999651\t-450\tACGT\tIIII\tNM:i:0\tRG:Z:rg1\n"
            "r2\t4\t*\t0\t0\t*\tchr2\t4294967295\t0\t*\t*\n");
}

}  // namespace
}  // namespace gkgpu
