// Paired-end subsystem tests: concordant pairing prunes candidates before
// verification (the subsystem's whole point), pairs mapped from vectors
// and from the paired FASTQ reader emit the same SAM at any worker count
// (golden-file regression in tests/data/paired_golden.sam), a malformed
// input throws once the pairs before it are written, the insert-size
// model converges on the simulated truth, mate rescue recovers a
// seed-starved mate, and the full FLAG/RNEXT/PNEXT/TLEN semantics hold on
// every record.
//
// Regenerating the golden after an intentional output change:
//   GKGPU_UPDATE_GOLDEN=1 ./build/test_paired
// then review the diff of tests/data/paired_golden.sam and commit it.
#include "paired/paired.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "encode/revcomp.hpp"
#include "filters/gatekeeper.hpp"
#include "io/paired_fastq.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr int kReadLength = 100;
constexpr int kThreshold = 4;

std::string GoldenPath() {
  return std::string(GKGPU_SOURCE_DIR) + "/tests/data/paired_golden.sam";
}

ReferenceSet MakeReference() {
  ReferenceSet ref;
  ref.Add("chrA", GenerateGenome(40000, 501));
  ref.Add("chrB", GenerateGenome(25000, 502));
  return ref;
}

struct PairSet {
  std::vector<FastqRecord> r1, r2;
};

/// Fixed-seed pairs sampled from both chromosomes, interleaved, with
/// deterministic (varying) quality strings so reversed QUAL is visible in
/// the golden output.
PairSet MakePairs(const ReferenceSet& ref, std::size_t per_chrom,
                  std::uint64_t seed) {
  PairSimConfig cfg;
  cfg.read_length = kReadLength;
  cfg.insert_mean = 350.0;
  cfg.insert_sd = 30.0;
  std::vector<std::vector<SimulatedPair>> per;
  for (std::size_t c = 0; c < ref.chromosome_count(); ++c) {
    const ChromosomeInfo& info = ref.chromosome(c);
    per.push_back(SimulatePairs(
        std::string_view(ref.text()).substr(
            static_cast<std::size_t>(info.offset),
            static_cast<std::size_t>(info.length)),
        per_chrom, cfg, seed + c));
  }
  PairSet ps;
  const auto qual = [](std::size_t i, std::size_t j) {
    return static_cast<char>('!' + (i * 7 + j) % 40);
  };
  for (std::size_t i = 0; i < per_chrom; ++i) {
    for (const auto& chrom_pairs : per) {
      const SimulatedPair& p = chrom_pairs[i];
      const std::size_t n = ps.r1.size();
      std::string q1(kReadLength, 'I');
      std::string q2(kReadLength, 'I');
      for (std::size_t j = 0; j < q1.size(); ++j) {
        q1[j] = qual(n, j);
        q2[j] = qual(n + 1, j);
      }
      ps.r1.push_back({"p" + std::to_string(n), p.seq1, q1});
      ps.r2.push_back({"p" + std::to_string(n), p.seq2, q2});
    }
  }
  return ps;
}

/// The filter the paired drivers run (what `gkgpu map --paired` passes).
const GateKeeperFilter kGateKeeper;

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

PairedConfig MakePairedConfig() {
  PairedConfig pconf;
  pconf.max_insert = 800;
  pconf.read_group = "rg1";
  return pconf;
}

std::string BlockingSam(const PairSet& ps, PairedStats* stats = nullptr,
                        unsigned threads = 0) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig(threads));
  PairedEndMapper paired(mapper, MakePairedConfig());
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference(), "rg1");
  const PairedStats st = paired.MapPairs(ps.r1, ps.r2, &kGateKeeper, &sam);
  if (stats != nullptr) *stats = st;
  return sam.str();
}

/// Serializes `ps` as FASTQ (two files, or one interleaved stream).
void WritePairs(const PairSet& ps, bool interleaved, std::ostream& fq1,
                std::ostream& fq2) {
  if (interleaved) {
    std::vector<FastqRecord> both;
    for (std::size_t i = 0; i < ps.r1.size(); ++i) {
      both.push_back(ps.r1[i]);
      both.push_back(ps.r2[i]);
    }
    WriteFastq(fq1, both);
  } else {
    WriteFastq(fq1, ps.r1);
    WriteFastq(fq2, ps.r2);
  }
}

std::string StreamingSam(const PairSet& ps, bool interleaved,
                         PairedStats* stats = nullptr, unsigned threads = 0) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig(threads));
  // FASTQ round trip through the paired reader exercises both layouts.
  std::stringstream fq1, fq2;
  WritePairs(ps, interleaved, fq1, fq2);
  auto reader = interleaved ? PairedFastqReader(fq1)
                            : PairedFastqReader(fq1, fq2);
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference(), "rg1");
  PairedEndMapper paired(mapper, MakePairedConfig());
  const PairedStats st = paired.MapPairs(reader, &kGateKeeper, &sam);
  if (stats != nullptr) *stats = st;
  return sam.str();
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath(), std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(PairedGoldenTest, BlockingAndStreamingMatchGoldenByteForByte) {
  const PairSet ps = MakePairs(MakeReference(), 60, 77);
  PairedStats blocking_stats;
  const std::string blocking = BlockingSam(ps, &blocking_stats);

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

  EXPECT_NE(golden.find("@RG\tID:rg1\n"), std::string::npos);
  EXPECT_NE(golden.find("RG:Z:rg1"), std::string::npos);

  EXPECT_EQ(blocking, golden) << "blocking MapPairs SAM drifted";
  EXPECT_EQ(StreamingSam(ps, /*interleaved=*/false), golden)
      << "dual-file streaming SAM differs from the golden blocking output";
  EXPECT_EQ(StreamingSam(ps, /*interleaved=*/true), golden)
      << "interleaved streaming SAM differs from the golden output";
  // The SAM does not depend on the worker count: one pool thread (two
  // workers with the caller) and four.
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(BlockingSam(ps, nullptr, threads), golden)
        << threads << "-thread pool, from vectors";
    EXPECT_EQ(StreamingSam(ps, /*interleaved=*/false, nullptr, threads),
              golden)
        << threads << "-thread pool, from the reader";
  }

  // Acceptance: concordant pairing prunes candidates vs independent
  // single-end mapping on simulated 2x100 bp pairs.
  EXPECT_GT(blocking_stats.PruningRatio(), 1.0);
  EXPECT_LT(blocking_stats.candidates_paired,
            blocking_stats.candidates_seeded);
  EXPECT_GT(blocking_stats.proper_pairs, blocking_stats.pairs / 2);
}

TEST(PairedGoldenTest, StreamingStatsAgreeWithBlocking) {
  const PairSet ps = MakePairs(MakeReference(), 30, 99);
  PairedStats blocking_stats, streaming_stats;
  const std::string a = BlockingSam(ps, &blocking_stats);
  const std::string b = StreamingSam(ps, false, &streaming_stats);
  EXPECT_EQ(a, b);
  EXPECT_EQ(streaming_stats.pairs, blocking_stats.pairs);
  EXPECT_EQ(streaming_stats.proper_pairs, blocking_stats.proper_pairs);
  EXPECT_EQ(streaming_stats.discordant_pairs,
            blocking_stats.discordant_pairs);
  EXPECT_EQ(streaming_stats.unmapped_pairs, blocking_stats.unmapped_pairs);
  EXPECT_EQ(streaming_stats.rescued_mates, blocking_stats.rescued_mates);
  EXPECT_EQ(streaming_stats.candidates_seeded,
            blocking_stats.candidates_seeded);
  EXPECT_EQ(streaming_stats.candidates_paired,
            blocking_stats.candidates_paired);
  EXPECT_EQ(streaming_stats.insert_observations,
            blocking_stats.insert_observations);
  EXPECT_DOUBLE_EQ(streaming_stats.insert_mean, blocking_stats.insert_mean);
  // The filter funnel partitions the paired candidates on both drivers:
  // every candidate is either verified (accepted, bypasses included) or
  // rejected, and the two drivers agree on the split.
  for (const PairedStats* s : {&blocking_stats, &streaming_stats}) {
    EXPECT_EQ(s->verification_pairs + s->rejected_pairs, s->candidates_paired);
  }
  EXPECT_EQ(streaming_stats.verification_pairs,
            blocking_stats.verification_pairs);
  EXPECT_EQ(streaming_stats.rejected_pairs, blocking_stats.rejected_pairs);
}

TEST(PairedStreamTest, TruncatedMateFileThrowsAfterThePairsBeforeIt) {
  // R2 ends after pair 39, so pair 40 — inside the third 16-pair chunk,
  // with chunk boundaries on both sides — has no mate.
  const PairSet ps = MakePairs(MakeReference(), 40, 31);
  ASSERT_EQ(ps.r1.size(), 80u);
  PairSet head;
  head.r1.assign(ps.r1.begin(), ps.r1.begin() + 39);
  head.r2.assign(ps.r2.begin(), ps.r2.begin() + 39);
  const std::string expected = StreamingSam(head, /*interleaved=*/false);

  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  std::stringstream fq1, fq2;
  WriteFastq(fq1, ps.r1);
  WriteFastq(fq2, head.r2);
  PairedFastqReader reader(fq1, fq2);
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference(), "rg1");
  PairedEndMapper paired(mapper, MakePairedConfig());
  try {
    paired.MapPairs(reader, &kGateKeeper, &sam);
    ADD_FAILURE() << "a truncated R2 must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("R2 ended after 39 records"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sam.str(), expected);
}

TEST(PairedFlagsTest, EveryRecordCarriesConsistentPairSemantics) {
  const PairSet ps = MakePairs(MakeReference(), 40, 123);
  const std::string sam = BlockingSam(ps);
  std::istringstream in(sam);
  std::string line;
  std::vector<std::vector<std::string>> records;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '@') continue;
    std::istringstream fields(line);
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok) f.push_back(tok);
    ASSERT_GE(f.size(), 11u) << line;
    records.push_back(std::move(f));
  }
  ASSERT_EQ(records.size(), 2 * ps.r1.size());  // two lines per pair, always

  for (std::size_t i = 0; i < records.size(); i += 2) {
    const auto& a = records[i];
    const auto& b = records[i + 1];
    EXPECT_EQ(a[0], b[0]) << "mates share the QNAME";
    const int fa = std::stoi(a[1]);
    const int fb = std::stoi(b[1]);
    // 0x1 on both; exactly one first (0x40) and one last (0x80).
    EXPECT_TRUE(fa & kSamPaired);
    EXPECT_TRUE(fb & kSamPaired);
    EXPECT_TRUE((fa & kSamFirstInPair) && (fb & kSamSecondInPair));
    // Mirror bits: my 0x10 is the mate's 0x20, my 0x4 is the mate's 0x8.
    EXPECT_EQ((fa & kSamReverse) != 0, (fb & kSamMateReverse) != 0) << a[0];
    EXPECT_EQ((fb & kSamReverse) != 0, (fa & kSamMateReverse) != 0) << a[0];
    EXPECT_EQ((fa & kSamUnmapped) != 0, (fb & kSamMateUnmapped) != 0) << a[0];
    EXPECT_EQ((fb & kSamUnmapped) != 0, (fa & kSamMateUnmapped) != 0) << a[0];
    // Proper pairs: both mapped, opposite strands, TLENs mirror and stay
    // within the insert bound.
    if (fa & kSamProperPair) {
      EXPECT_TRUE(fb & kSamProperPair);
      EXPECT_FALSE(fa & kSamUnmapped);
      EXPECT_FALSE(fb & kSamUnmapped);
      EXPECT_NE((fa & kSamReverse) != 0, (fb & kSamReverse) != 0) << a[0];
      const long ta = std::stol(a[8]);
      const long tb = std::stol(b[8]);
      EXPECT_EQ(ta, -tb) << a[0];
      EXPECT_LE(std::abs(ta), 800) << a[0];
      EXPECT_GE(std::abs(ta), kReadLength) << a[0];
      EXPECT_EQ(a[6], "=") << a[0];  // RNEXT
      // PNEXT points at the mate's POS.
      EXPECT_EQ(a[7], b[3]) << a[0];
      EXPECT_EQ(b[7], a[3]) << a[0];
    }
    // Reverse records carry the reverse-complemented SEQ of the input.
    const std::size_t pair = i / 2;
    if (!(fa & kSamUnmapped)) {
      EXPECT_EQ(a[9], (fa & kSamReverse) ? ReverseComplement(
                                               ps.r1[pair].seq)
                                         : ps.r1[pair].seq)
          << a[0];
      if (fa & kSamReverse) {
        const std::string rq(ps.r1[pair].qual.rbegin(),
                             ps.r1[pair].qual.rend());
        EXPECT_EQ(a[10], rq) << a[0];
      }
    }
    if (!(fb & kSamUnmapped)) {
      EXPECT_EQ(b[9], (fb & kSamReverse) ? ReverseComplement(
                                               ps.r2[pair].seq)
                                         : ps.r2[pair].seq)
          << b[0];
    }
  }
}

TEST(PairedStatsTest, InsertModelConvergesOnSimulatedTruth) {
  const PairSet ps = MakePairs(MakeReference(), 150, 31);
  PairedStats stats;
  BlockingSam(ps, &stats);
  EXPECT_GT(stats.insert_observations, 100u);
  EXPECT_NEAR(stats.insert_mean, 350.0, 15.0);
  EXPECT_NEAR(stats.insert_sigma, 30.0, 15.0);
}

TEST(PairedStatsTest, FilterLosesNoPairs) {
  // GateKeeper is lossless: pre-alignment filtering must not change any
  // pairing outcome, only the verification workload.
  const PairSet ps = MakePairs(MakeReference(), 40, 61);
  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  PairedEndMapper paired(mapper, MakePairedConfig());
  std::ostringstream sam_nf, sam_f;
  const PairedStats no_filter = paired.MapPairs(ps.r1, ps.r2, nullptr,
                                                &sam_nf);
  const PairedStats with_filter =
      paired.MapPairs(ps.r1, ps.r2, &kGateKeeper, &sam_f);
  EXPECT_EQ(sam_nf.str(), sam_f.str());
  EXPECT_EQ(with_filter.proper_pairs, no_filter.proper_pairs);
  EXPECT_LT(with_filter.verification_pairs, no_filter.verification_pairs);
  EXPECT_GT(with_filter.rejected_pairs, 0u);
}

TEST(PairedRescueTest, SeedStarvedMateIsRescuedIntoAProperPair) {
  const std::string genome = GenerateGenome(120000, 71);
  const std::int64_t frag_start = 30000;
  const int frag_len = 400;
  const std::string fragment = genome.substr(frag_start, frag_len);
  ASSERT_EQ(fragment.find('N'), std::string::npos);

  // A threshold of 8 makes the pigeonhole guarantee unreachable: only
  // floor(100/12) = 8 non-overlapping seeds fit a 100 bp read, so a read
  // with one substitution inside each seed carries 8 <= e edits yet seeds
  // nowhere — exactly the mate only rescue can place.
  MapperConfig mcfg = MakeMapperConfig();
  mcfg.error_threshold = 8;
  ReadMapper mapper(genome, mcfg);

  // R1: exact 5' end.  R2: 3' end, seed-starved as above.
  const std::string r1 = fragment.substr(0, kReadLength);
  std::string r2_fwd = fragment.substr(frag_len - kReadLength, kReadLength);
  const int n_seeds = kReadLength / mcfg.k;
  for (int s = 0; s < n_seeds; ++s) {
    char& c = r2_fwd[static_cast<std::size_t>(s * mcfg.k) + 3];
    c = ComplementBase(c);  // guaranteed substitution on N-free text
  }
  std::vector<OrientedCandidate> cands;
  std::string rc_buf;
  std::vector<std::int64_t> scratch;
  mapper.CollectCandidatesOriented(ReverseComplement(r2_fwd), &rc_buf,
                                   &scratch, &cands);
  ASSERT_TRUE(cands.empty()) << "R2 must be seed-starved for this test";

  PairedConfig pconf;
  pconf.max_insert = 800;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  PairedStats stats = paired.MapPairs(
      {{"frag", r1, ""}}, {{"frag", ReverseComplement(r2_fwd), ""}}, nullptr,
      &sam);
  EXPECT_EQ(stats.rescued_mates, 1u);
  EXPECT_EQ(stats.proper_pairs, 1u);
  EXPECT_EQ(stats.single_end_pairs, 0u);
  // Rescue placed R2 at the fragment's 3' end with TLEN = fragment length.
  const std::string out = sam.str();
  EXPECT_NE(out.find("frag\t99\tsynthetic_chr1\t" +
                     std::to_string(frag_start + 1)),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("frag\t147\tsynthetic_chr1\t" +
                     std::to_string(frag_start + frag_len - kReadLength + 1)),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\t" + std::to_string(frag_len) + "\t"),
            std::string::npos)
      << out;

  // With rescue disabled the pair degrades to single-end.
  pconf.mate_rescue = false;
  PairedEndMapper no_rescue(mapper, pconf);
  std::ostringstream sam2;
  stats = no_rescue.MapPairs(
      {{"frag", r1, ""}}, {{"frag", ReverseComplement(r2_fwd), ""}}, nullptr,
      &sam2);
  EXPECT_EQ(stats.rescued_mates, 0u);
  EXPECT_EQ(stats.single_end_pairs, 1u);
  EXPECT_NE(sam2.str().find("\t133\t"), std::string::npos) << sam2.str();
}

TEST(PairedEdgeTest, GarbagePairsEmitUnmappedRecords) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  PairedEndMapper paired(mapper, MakePairedConfig());
  Rng rng(87);
  std::string junk1(kReadLength, 'A');
  std::string junk2(kReadLength, 'A');
  for (auto& c : junk1) c = kBases[rng.NextU64() & 0x3u];
  for (auto& c : junk2) c = kBases[rng.NextU64() & 0x3u];
  std::ostringstream sam;
  const PairedStats stats = paired.MapPairs(
      {{"junk", junk1, ""}}, {{"junk", junk2, ""}}, nullptr, &sam);
  EXPECT_EQ(stats.unmapped_pairs, 1u);
  const std::string out = sam.str();
  EXPECT_NE(out.find("junk\t77\t*\t0\t0\t*\t*\t0\t0\t" + junk1),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("junk\t141\t*\t0\t0\t*\t*\t0\t0\t" + junk2),
            std::string::npos)
      << out;
}

TEST(PairedEdgeTest, WrongLengthPairsAreEmittedUnmappedNotDropped) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  PairedEndMapper paired(mapper, MakePairedConfig());
  std::ostringstream sam;
  const PairedStats stats = paired.MapPairs(
      {{"short", "ACGTACGT", ""}},
      {{"short", "ACGTACGTAC", ""}}, nullptr, &sam);
  EXPECT_EQ(stats.skipped_pairs, 1u);
  // Two unmapped records still appear: SAM holds every input pair.
  EXPECT_NE(sam.str().find("short\t77\t"), std::string::npos);
  EXPECT_NE(sam.str().find("short\t141\t"), std::string::npos);
}

TEST(PairedRescueTest, IndelRescueTlenUsesReferenceSpan) {
  // A rescued mate carrying a deletion consumes more reference bases than
  // the read length; TLEN must come from the fit alignment's reference
  // span, not L, or the fragment is understated by the indel width.
  const std::string genome = GenerateGenome(120000, 71);
  const std::int64_t frag_start = 30000;
  const int frag_len = 400;
  const int span = kReadLength + 1;  // 1-base deletion: 100 bp over 101
  const std::string fragment = genome.substr(frag_start, frag_len);
  ASSERT_EQ(fragment.find('N'), std::string::npos);

  MapperConfig mcfg = MakeMapperConfig();
  mcfg.error_threshold = 8;  // seed starvation reachable (see above test)
  ReadMapper mapper(genome, mcfg);

  // R1: exact 5' end.  R2: the 3'-most 101 reference bases with the base
  // at segment index 50 deleted (breaking seed 4, which straddles the
  // splice) and a substitution inside each of the other 7 seeds — 8 = e
  // edits total, seeded nowhere, recoverable only by rescue.
  const std::string r1 = fragment.substr(0, kReadLength);
  const std::string segment =
      fragment.substr(static_cast<std::size_t>(frag_len - span),
                      static_cast<std::size_t>(span));
  std::string r2_fwd = segment.substr(0, 50) + segment.substr(51);
  ASSERT_EQ(static_cast<int>(r2_fwd.size()), kReadLength);
  const int n_seeds = kReadLength / mcfg.k;
  for (int s = 0; s < n_seeds; ++s) {
    if (s == 4) continue;  // the deletion already breaks this seed
    char& c = r2_fwd[static_cast<std::size_t>(s * mcfg.k) + 3];
    c = ComplementBase(c);
  }
  std::vector<OrientedCandidate> cands;
  std::string rc_buf;
  std::vector<std::int64_t> scratch;
  mapper.CollectCandidatesOriented(ReverseComplement(r2_fwd), &rc_buf,
                                   &scratch, &cands);
  ASSERT_TRUE(cands.empty()) << "R2 must be seed-starved for this test";

  PairedConfig pconf;
  pconf.max_insert = 800;
  PairedEndMapper paired(mapper, pconf);
  std::ostringstream sam;
  const PairedStats stats = paired.MapPairs(
      {{"indel", r1, ""}}, {{"indel", ReverseComplement(r2_fwd), ""}},
      nullptr, &sam);
  EXPECT_EQ(stats.rescued_mates, 1u);
  EXPECT_EQ(stats.proper_pairs, 1u);
  EXPECT_EQ(stats.rescue_invocations, 1u);
  const std::string out = sam.str();
  // R2 placed at the segment start; its CIGAR records the deletion.
  EXPECT_NE(out.find("indel\t147\tsynthetic_chr1\t" +
                     std::to_string(frag_start + frag_len - span + 1)),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("D"), std::string::npos) << out;
  // The outer fragment spans the full 400 bases only when the rescued
  // placement's 101-base reference span is used; L would give 399.
  EXPECT_NE(out.find("\t" + std::to_string(frag_len) + "\t"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\t-" + std::to_string(frag_len) + "\t"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("\t" + std::to_string(frag_len - 1) + "\t"),
            std::string::npos)
      << out;
}

// The prune's definition, pair by pair: forward start f and reverse start
// r make a concordant FR fragment [f, r + L) when it is no longer than
// max_insert and lies inside one chromosome.
bool Concordant(const ReferenceSet& ref, int L, std::int64_t max_insert,
                std::int64_t f, std::int64_t r) {
  const std::int64_t frag = r + L - f;
  return r >= f && frag <= max_insert &&
         ref.WindowWithinChromosome(f, static_cast<int>(frag));
}

std::vector<OrientedCandidate> KeptByOracle(
    const ReferenceSet& ref, int L, std::int64_t max_insert,
    const std::vector<OrientedCandidate>& mine,
    const std::vector<OrientedCandidate>& other) {
  std::vector<OrientedCandidate> kept;
  for (const OrientedCandidate& a : mine) {
    for (const OrientedCandidate& b : other) {
      if (a.strand == b.strand) continue;
      const OrientedCandidate& f = a.strand == 0 ? a : b;
      const OrientedCandidate& r = a.strand == 0 ? b : a;
      if (Concordant(ref, L, max_insert, f.pos, r.pos)) {
        kept.push_back(a);
        break;
      }
    }
  }
  return kept;
}

void ExpectSameCandidates(const std::vector<OrientedCandidate>& got,
                          const std::vector<OrientedCandidate>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << label << " candidate " << i;
    EXPECT_EQ(got[i].strand, want[i].strand) << label << " candidate " << i;
  }
}

TEST(PairedPruneTest, MatchesAllPairsOracle) {
  // Random sorted, deduplicated candidate lists on 1-4 chromosomes: noise
  // anywhere, plus planted fragments of exactly max_insert, one base
  // more, exactly L and anything between, some of them straddling a
  // chromosome junction.  Each mate's kept list, order included, must be
  // what the all-pairs definition keeps, and when no c1 candidate has a
  // partner both lists must stay as they were.
  Rng rng(41);
  const auto below = [&rng](std::int64_t n) {  // uniform in [0, n)
    return static_cast<std::int64_t>(rng.Uniform(n));
  };
  int pruned = 0;
  int untouched = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    ReferenceSet ref;
    const std::int64_t chromosomes = 1 + below(4);
    for (int c = 0; c < chromosomes; ++c) {
      ref.Add("chr" + std::to_string(c), std::string(200 + below(1500), 'A'));
    }
    const auto total = static_cast<std::int64_t>(ref.text().size());
    const int L = 20 + static_cast<int>(below(101));
    const std::int64_t max_insert = L + below(801);
    std::vector<std::int64_t> at[2][2];  // [mate][strand]
    for (auto k = below(10); k > 0; --k) {
      at[below(2)][below(2)].push_back(below(total));
    }
    for (auto k = below(4); k > 0; --k) {
      const std::int64_t between = L + below(max_insert - L + 1);
      const std::int64_t lengths[] = {max_insert, max_insert + 1, L, between};
      const std::int64_t frag = lengths[below(4)];
      std::int64_t f = below(total);
      if (chromosomes > 1 && below(2) == 0) {
        // End the fragment's window just past, at or before a junction.
        const std::vector<std::int64_t>& ends = ref.chromosome_ends();
        f = ends[below(chromosomes - 1)] - frag + 1 - below(3);
      }
      const std::int64_t r = f + frag - L;
      if (f < 0 || r >= total) continue;
      const std::int64_t mate = below(2);
      at[mate][0].push_back(f);
      at[1 - mate][1].push_back(r);
    }
    std::vector<OrientedCandidate> c[2];
    for (int mate = 0; mate < 2; ++mate) {
      for (std::uint8_t strand = 0; strand < 2; ++strand) {
        std::vector<std::int64_t>& v = at[mate][strand];
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        for (const std::int64_t pos : v) c[mate].push_back({pos, strand});
      }
    }
    std::vector<OrientedCandidate> want1 =
        KeptByOracle(ref, L, max_insert, c[0], c[1]);
    std::vector<OrientedCandidate> want2 =
        KeptByOracle(ref, L, max_insert, c[1], c[0]);
    if (want1.empty()) {
      want1 = c[0];
      want2 = c[1];
      ++untouched;
    } else if (want1.size() + want2.size() < c[0].size() + c[1].size()) {
      ++pruned;
    }
    PruneConcordant(ref, L, max_insert, &c[0], &c[1]);
    const std::string label = "trial " + std::to_string(trial);
    ExpectSameCandidates(c[0], want1, label + " mate 1");
    ExpectSameCandidates(c[1], want2, label + " mate 2");
  }
  EXPECT_GT(pruned, 1000);
  EXPECT_GT(untouched, 1000);
}

TEST(PairedEdgeTest, MismatchedInputsThrow) {
  ReadMapper mapper(MakeReference(), MakeMapperConfig());
  PairedEndMapper paired(mapper, MakePairedConfig());
  EXPECT_THROW(
      paired.MapPairs({{"a", "ACGT", ""}}, {}, nullptr, nullptr),
      std::invalid_argument);
  EXPECT_THROW(paired.MapPairs({{"a", "ACGT", ""}}, {{"b", "ACGT", ""}},
                               nullptr, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace gkgpu
