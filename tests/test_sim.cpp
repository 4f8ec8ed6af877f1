// Tests for the data-set substrate: genome generation, read simulation,
// and candidate-pair generation with controlled edit profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "align/myers.hpp"
#include "encode/dna.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

TEST(GenomeTest, DeterministicAndWellFormed) {
  const std::string g1 = GenerateGenome(100000, 42);
  const std::string g2 = GenerateGenome(100000, 42);
  EXPECT_EQ(g1, g2);
  const std::string g3 = GenerateGenome(100000, 43);
  EXPECT_NE(g1, g3);
  EXPECT_EQ(g1.size(), 100000u);
  for (const char c : g1) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T' || c == 'N');
  }
}

TEST(GenomeTest, ContainsPlantedRepeats) {
  GenomeProfile profile;
  profile.repeat_families = 8;
  profile.repeat_length = 500;
  profile.repeat_copies = 6;
  profile.repeat_mutation_rate = 0.0;  // exact copies for this test
  profile.n_runs_per_mb = 0.0;
  const std::string g = GenerateGenome(500000, 7, profile);
  // Some 32-mer must appear several times (the repeat bodies).
  std::set<std::string> seen;
  int duplicates = 0;
  for (std::size_t i = 0; i + 32 <= g.size(); i += 16) {
    const std::string kmer = g.substr(i, 32);
    if (!seen.insert(kmer).second) ++duplicates;
  }
  EXPECT_GT(duplicates, 10);
}

TEST(GenomeTest, NRunsAppearAtRequestedRate) {
  GenomeProfile profile;
  profile.n_runs_per_mb = 10.0;
  profile.n_run_length = 50;
  const std::string g = GenerateGenome(1000000, 11, profile);
  const std::size_t n_count = static_cast<std::size_t>(
      std::count(g.begin(), g.end(), 'N'));
  EXPECT_GT(n_count, 200u);     // ~10 runs x 50 bases, allow overlap losses
  EXPECT_LT(n_count, 2000u);
}

TEST(ReadSimTest, ReadsHaveRequestedLengthAndTraceableOrigin) {
  const std::string genome = GenerateGenome(200000, 5);
  const auto reads =
      SimulateReads(genome, 200, 100, ReadErrorProfile::Illumina(), 9);
  ASSERT_EQ(reads.size(), 200u);
  MyersAligner oracle;
  for (const auto& r : reads) {
    ASSERT_EQ(r.seq.size(), 100u);
    ASSERT_GE(r.origin, 0);
    ASSERT_LE(r.origin + 100, static_cast<std::int64_t>(genome.size()));
    // The read must still resemble its origin locus: edit distance to the
    // origin segment is bounded by the simulated edits plus indel drift.
    const std::string_view locus(genome.data() + r.origin, 100);
    EXPECT_LE(oracle.Distance(r.seq, locus), 2 * r.edits + 1)
        << "origin " << r.origin;
  }
}

TEST(ReadSimTest, ErrorFreeProfileCopiesGenome) {
  const std::string genome = GenerateGenome(50000, 15);
  ReadErrorProfile clean{0.0, 0.0, 0.0, 0.0};
  const auto reads = SimulateReads(genome, 50, 150, clean, 21);
  for (const auto& r : reads) {
    EXPECT_EQ(r.edits, 0);
    EXPECT_EQ(r.seq, genome.substr(static_cast<std::size_t>(r.origin), 150));
  }
}

TEST(ReadSimTest, ShortChromosomesKeepEveryOriginAndNoPadding) {
  // A chromosome shorter than a read plus its deletion slack still
  // offers every origin the read fits at (here 0-20), single-end and
  // paired.
  Rng rng(61);
  std::string chrom(120, 'A');
  for (char& c : chrom) c = kBases[rng.Uniform(4)];
  std::set<std::int64_t> origins;
  for (const auto& r :
       SimulateReads(chrom, 2000, 100, ReadErrorProfile::Illumina(), 7)) {
    ASSERT_EQ(r.seq.size(), 100u);
    ASSERT_LE(r.origin, 20);
    origins.insert(r.origin);
  }
  EXPECT_GT(origins.size(), 1u);
  PairSimConfig cfg;
  cfg.insert_mean = 105.0;
  cfg.insert_sd = 5.0;
  cfg.profile = {0.0, 0.0, 0.0, 0.0};
  std::set<std::int64_t> starts;
  for (const auto& p : SimulatePairs(chrom, 500, cfg, 11)) {
    ASSERT_LE(p.fragment_start + p.fragment_length, 120);
    EXPECT_EQ(p.seq1, chrom.substr(static_cast<std::size_t>(p.origin1), 100));
    starts.insert(p.fragment_start);
  }
  EXPECT_GT(starts.size(), 1u);
  // A deletion is applied only while the chromosome has a base to spare:
  // on one exactly as long as the read, a deletion-only profile returns
  // the chromosome itself instead of padding random bases past its end.
  const std::string exact = chrom.substr(0, 100);
  const ReadErrorProfile deletions{0.0, 0.0, 1.0, 0.0};
  for (const auto& r : SimulateReads(exact, 20, 100, deletions, 9)) {
    EXPECT_EQ(r.origin, 0);
    EXPECT_EQ(r.seq, exact);
    EXPECT_EQ(r.edits, 0);
  }
}

TEST(ReadSimTest, RichDeletionProfileProducesMoreEdits) {
  const std::string genome = GenerateGenome(200000, 25);
  const auto low =
      SimulateReads(genome, 300, 150, ReadErrorProfile::LowIndel(), 31);
  const auto rich =
      SimulateReads(genome, 300, 150, ReadErrorProfile::RichDeletion(), 31);
  auto total_edits = [](const std::vector<SimulatedRead>& rs) {
    std::int64_t sum = 0;
    for (const auto& r : rs) sum += r.edits;
    return sum;
  };
  EXPECT_GT(total_edits(rich), total_edits(low));
}

TEST(PairGenTest, SubstitutionEditBudgetIsExact) {
  MyersAligner oracle;
  Rng rng(77);
  for (int t = 0; t < 300; ++t) {
    const int edits = static_cast<int>(rng.Uniform(26));
    const SequencePair p = MakePairWithEdits(100, edits, 0.0, rng.NextU64());
    ASSERT_EQ(p.read.size(), 100u);
    ASSERT_EQ(p.ref.size(), 100u);
    EXPECT_LE(oracle.Distance(p.read, p.ref), edits) << "trial " << t;
  }
}

TEST(PairGenTest, IndelEditBudgetBoundedByDouble) {
  // Equal-length windows add up to one trailing edit per net indel.
  MyersAligner oracle;
  Rng rng(78);
  for (int t = 0; t < 300; ++t) {
    const int edits = static_cast<int>(rng.Uniform(26));
    const SequencePair p = MakePairWithEdits(100, edits, 0.5, rng.NextU64());
    EXPECT_LE(oracle.Distance(p.read, p.ref), 2 * edits) << "trial " << t;
  }
}

TEST(PairGenTest, ZeroEditsMeansExactMatch) {
  for (int t = 0; t < 50; ++t) {
    const SequencePair p =
        MakePairWithEdits(150, 0, 0.3, static_cast<std::uint64_t>(t));
    EXPECT_EQ(p.read, p.ref);
  }
}

TEST(PairGenTest, GeneratePairsIsDeterministic) {
  const PairProfile profile = LowEditProfile(100);
  const auto a = GeneratePairs(500, profile, 123);
  const auto b = GeneratePairs(500, profile, 123);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].read, b[i].read);
    EXPECT_EQ(a[i].ref, b[i].ref);
  }
}

TEST(PairGenTest, UndefinedRateInjectsNs) {
  PairProfile profile = LowEditProfile(100);
  profile.undefined_rate = 0.2;
  const auto pairs = GeneratePairs(1000, profile, 5);
  int undefined = 0;
  for (const auto& p : pairs) {
    if (ContainsUnknown(p.read) || ContainsUnknown(p.ref)) ++undefined;
  }
  EXPECT_GT(undefined, 120);
  EXPECT_LT(undefined, 290);
}

TEST(PairGenTest, ProfilesDifferInEditMass) {
  // High-edit sets must have far fewer within-threshold pairs than low-edit
  // sets at the same threshold (this is what drives Fig. 5 vs S.7).
  MyersAligner oracle;
  auto within = [&](const PairProfile& profile, int e) {
    const auto pairs = GeneratePairs(600, profile, 9);
    int n = 0;
    for (const auto& p : pairs) {
      if (oracle.Distance(p.read, p.ref) <= e) ++n;
    }
    return n;
  };
  const int low = within(LowEditProfile(100), 5);
  const int high = within(HighEditProfile(100), 5);
  const int mrfast = within(MrFastCandidateProfile(100), 5);
  EXPECT_GT(low, 5 * std::max(high, 1));
  EXPECT_GT(low, mrfast);
}

TEST(PairGenTest, EveryProfileGeneratesShortLengths) {
  // Below ~20 bp the profiles' edit bands clamp to one edit and some invert
  // (min > max); each still yields its pairs, at the requested length.
  for (PairProfile (*const make)(int) :
       {MrFastCandidateProfile, LowEditProfile, HighEditProfile,
        Minimap2Profile, BwaMemProfile}) {
    for (int length = 1; length <= 40; ++length) {
      const auto pairs = GeneratePairs(200, make(length), 17);
      ASSERT_EQ(pairs.size(), 200u) << length;
      for (const SequencePair& p : pairs) {
        ASSERT_EQ(p.read.size(), static_cast<std::size_t>(length));
        ASSERT_EQ(p.ref.size(), static_cast<std::size_t>(length));
      }
    }
  }
}

TEST(PairGenTest, BwaMemProfileIsHighIdentity) {
  MyersAligner oracle;
  const auto pairs = GeneratePairs(400, BwaMemProfile(100), 13);
  int within10 = 0;
  for (const auto& p : pairs) {
    if (oracle.Distance(p.read, p.ref) <= 10) ++within10;
  }
  EXPECT_GT(within10, 200);  // most BWA-MEM candidates are near-identical
}

}  // namespace
}  // namespace gkgpu
