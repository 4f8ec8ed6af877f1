// Property test of the seed vote (ReadMapper::SeedReads with
// SeedVote::kOn): on small four-chromosome genomes (random, repeat-dense
// and N-rich) every read is scored against every window of the text by
// brute force, and for e from 0 to 10 on monolithic and 4-shard indexes
// the voted candidates must be a sorted subset of the pigeonhole ones that
// keeps every pigeonhole candidate within e edits of its read.  A
// constructed case pins the rule that only hits inside the window vote.
#include "mapper/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "align/banded.hpp"
#include "encode/revcomp.hpp"
#include "obs/metrics.hpp"
#include "seed_oracle.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr int kK = 8;
constexpr int kLength = 100;  // 12 non-overlapping 8-mers
constexpr int kMaxErrors = 10;
constexpr std::int64_t kChromosomeLength = 3000;

ReferenceSet MakeReference(const GenomeProfile& profile, std::uint64_t seed) {
  ReferenceSet ref;
  for (int c = 0; c < 4; ++c) {
    ref.Add("chr" + std::to_string(c + 1),
            GenerateGenome(kChromosomeLength, seed + c, profile));
  }
  return ref;
}

/// `text`'s window at `origin` with `edits` edits, each inside a different
/// one of the read's length / kK k-mers (drawn by a seeded shuffle):
/// substitutions, insertions and deletions in turn.  With e = edits such a
/// read keeps just n - e intact k-mers, the vote's threshold.
std::string EditedRead(std::string_view text, std::int64_t origin, int edits,
                       Rng& rng, int length = kLength) {
  std::string read(text.substr(static_cast<std::size_t>(origin),
                               static_cast<std::size_t>(length + edits)));
  std::vector<int> slots(static_cast<std::size_t>(length / kK));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<int>(i);
  }
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.Uniform(i)]);
  }
  slots.resize(static_cast<std::size_t>(edits));
  // Right to left, so an indel never moves a slot still to be edited.
  std::sort(slots.rbegin(), slots.rend());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t at = static_cast<std::size_t>(
        slots[i] * kK + 1 + static_cast<int>(rng.Uniform(kK - 2)));
    switch (i % 3) {
      case 0:
        read[at] = ComplementBase(read[at]);
        break;
      case 1:
        read.insert(at, 1, "ACGT"[rng.Uniform(4)]);
        break;
      default:
        read.erase(at, 1);
        break;
    }
  }
  read.resize(static_cast<std::size_t>(length));
  return read;
}

/// The reads of one genome: Illumina and rich-deletion simulations, reads
/// with 0-10 edits spread one per k-mer, windows straddling each
/// chromosome junction, and last a read with N in two of its k-mers on
/// either strand.  Every other read is reverse-complemented.
std::vector<std::string> MakeReads(const ReferenceSet& ref,
                                   std::uint64_t seed) {
  const std::string_view text = ref.text();
  std::vector<std::string> reads =
      SimulateReadSequences(text, 30, kLength, ReadErrorProfile::Illumina(),
                            seed);
  for (std::string& r : SimulateReadSequences(
           text, 30, kLength, ReadErrorProfile::RichDeletion(), seed + 1)) {
    reads.push_back(std::move(r));
  }
  Rng rng(seed + 2);
  for (int edits = 0; edits <= kMaxErrors; ++edits) {
    for (int copy = 0; copy < 2; ++copy) {
      const std::int64_t origin = static_cast<std::int64_t>(
          rng.Uniform(text.size() - kLength - kMaxErrors));
      reads.push_back(EditedRead(text, origin, edits, rng));
    }
  }
  for (std::size_t c = 1; c < ref.chromosome_count(); ++c) {
    const std::int64_t junction = ref.chromosome(c).offset;
    reads.emplace_back(text.substr(
        static_cast<std::size_t>(junction - kLength / 2), kLength));
  }
  for (std::size_t i = 1; i < reads.size(); i += 2) {
    reads[i] = ReverseComplement(reads[i]);
  }
  // k-mers 1 and 6 forward, 6 and 11 on the reverse strand.
  std::string n_read(text.substr(1000, kLength));
  n_read[10] = 'N';
  n_read[50] = 'N';
  reads.push_back(n_read);
  return reads;
}

/// Brute force: the edit distance of each read, on each strand, to the
/// window at every start, -1 where it exceeds kMaxErrors.  Indexed
/// [(read * 2 + strand) * windows + start].
std::vector<std::int8_t> ScoreEveryWindow(std::string_view text,
                                          const std::vector<std::string>& reads,
                                          std::size_t windows) {
  std::vector<std::int8_t> dist(reads.size() * 2 * windows);
  BandedVerifier verifier;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const std::string rc = ReverseComplement(reads[r]);
    for (int strand = 0; strand < 2; ++strand) {
      const std::string& seq = strand == 0 ? reads[r] : rc;
      std::int8_t* row = dist.data() + (r * 2 + strand) * windows;
      for (std::size_t start = 0; start < windows; ++start) {
        row[start] = static_cast<std::int8_t>(verifier.Distance(
            seq, text.substr(start, kLength), kMaxErrors));
      }
    }
  }
  return dist;
}

/// Per read, the candidates of one SeedReads pass over `reads`.
std::vector<std::vector<OrientedCandidate>> Seed(
    const ReadMapper& mapper, const std::vector<std::string>& reads,
    SeedVote vote) {
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  std::vector<std::vector<OrientedCandidate>> out;
  SeedChunk chunk;
  for (std::size_t c0 = 0; c0 < views.size(); c0 += kSeedChunkReads) {
    const std::size_t n = std::min(kSeedChunkReads, views.size() - c0);
    mapper.SeedReads(std::span(views).subspan(c0, n), &chunk, vote);
    for (std::size_t j = 0; j < n; ++j) {
      out.emplace_back(chunk.candidates(j).begin(), chunk.candidates(j).end());
    }
  }
  return out;
}

bool Before(const OrientedCandidate& a, const OrientedCandidate& b) {
  return a.strand != b.strand ? a.strand < b.strand : a.pos < b.pos;
}

double Total(const char* name) {
  return obs::Registry::Global().Snapshot().Total(name);
}

struct GenomeCase {
  const char* name;
  GenomeProfile profile;
};

std::vector<GenomeCase> Genomes() {
  GenomeProfile random;
  random.repeat_families = 0;
  random.n_runs_per_mb = 0.0;
  GenomeProfile repeats;
  repeats.repeat_families = 4;
  repeats.repeat_length = 300;
  repeats.repeat_copies = 6;
  repeats.repeat_mutation_rate = 0.03;
  repeats.n_runs_per_mb = 0.0;
  GenomeProfile n_rich;
  n_rich.repeat_families = 0;
  n_rich.n_runs_per_mb = 2000.0;  // ~6 runs per chromosome
  n_rich.n_run_length = 12;
  return {{"random", random}, {"repeat-dense", repeats}, {"N-rich", n_rich}};
}

TEST(SeedVoteProperty, VotedSetIsASubsetThatKeepsEveryVerifiableCandidate) {
  std::uint64_t seed = 300;
  for (const GenomeCase& g : Genomes()) {
    SCOPED_TRACE(g.name);
    seed += 10;
    const ReferenceSet ref = MakeReference(g.profile, seed);
    const std::string_view text = ref.text();
    const std::vector<std::string> reads = MakeReads(ref, seed);
    const std::size_t windows = text.size() - kLength + 1;
    const std::vector<std::int8_t> dist =
        ScoreEveryWindow(text, reads, windows);
    const auto distance = [&](std::size_t r, const OrientedCandidate& c) {
      return dist[(r * 2 + c.strand) * windows +
                  static_cast<std::size_t>(c.pos)];
    };

    std::uint64_t cut = 0;
    std::uint64_t kept_within_e = 0;
    for (int e = 0; e <= kMaxErrors; ++e) {
      std::vector<std::vector<OrientedCandidate>> mono_voted;
      for (const std::int64_t shard_max_bp :
           {std::int64_t{0}, kChromosomeLength}) {
        SCOPED_TRACE("e = " + std::to_string(e) + ", shard budget " +
                     std::to_string(shard_max_bp));
        MapperConfig cfg;
        cfg.k = kK;
        cfg.read_length = kLength;
        cfg.error_threshold = e;
        cfg.shard_max_bp = shard_max_bp;
        cfg.verify_threads = 1;
        const ReadMapper mapper(ref, cfg);
        ASSERT_EQ(mapper.index().shard_count(), shard_max_bp == 0 ? 1u : 4u);

        const std::vector<std::vector<OrientedCandidate>> pigeonhole =
            Seed(mapper, reads, SeedVote::kOff);
        const double seeded0 = Total("gkgpu_candidates_seeded_total");
        const double voted_out0 = Total("gkgpu_candidates_voted_out_total");
        const std::vector<std::vector<OrientedCandidate>> voted =
            Seed(mapper, reads, SeedVote::kOn);
        std::uint64_t pigeonhole_total = 0;
        for (std::size_t r = 0; r < reads.size(); ++r) {
          const auto& all = pigeonhole[r];
          const auto& kept = voted[r];
          pigeonhole_total += all.size();
          ASSERT_TRUE(std::is_sorted(kept.begin(), kept.end(), Before))
              << "read " << r;
          ASSERT_TRUE(std::includes(all.begin(), all.end(), kept.begin(),
                                    kept.end(), Before))
              << "read " << r;
          for (const OrientedCandidate& c : all) {
            const int d = distance(r, c);
            if (d < 0 || d > e) continue;
            EXPECT_TRUE(std::binary_search(kept.begin(), kept.end(), c,
                                           Before))
                << "read " << r << " lost its window at " << c.pos
                << " (strand " << int{c.strand} << ", " << d << " edits)";
            ++kept_within_e;
          }
          cut += all.size() - kept.size();
        }
        // The funnel: what the vote emits plus what it cut is the
        // pigeonhole count.
        EXPECT_EQ(Total("gkgpu_candidates_seeded_total") - seeded0 +
                      Total("gkgpu_candidates_voted_out_total") - voted_out0,
                  static_cast<double>(pigeonhole_total));
        // Two of the N read's 12 k-mers hold an N: from e = 9 on its
        // threshold 10 - e is <= 1 and the vote leaves it alone.
        if (e >= 9) {
          const std::size_t n_read = reads.size() - 1;
          EXPECT_EQ(voted[n_read].size(), pigeonhole[n_read].size());
        }
        // A k-mer spanning a chromosome junction is indexed only where
        // both chromosomes share a shard; the vote counts hits inside the
        // window alone, so the layout cannot change what it keeps.
        if (shard_max_bp == 0) {
          mono_voted = voted;
          continue;
        }
        for (std::size_t r = 0; r < reads.size(); ++r) {
          ASSERT_EQ(voted[r].size(), mono_voted[r].size()) << "read " << r;
          for (std::size_t i = 0; i < voted[r].size(); ++i) {
            EXPECT_EQ(voted[r][i].pos, mono_voted[r][i].pos) << "read " << r;
            EXPECT_EQ(voted[r][i].strand, mono_voted[r][i].strand);
          }
        }
      }
    }
    EXPECT_GT(cut, 0u);
    EXPECT_GT(kept_within_e, 0u);
  }
}

TEST(SeedVoteTest, HitsOutsideTheWindowDoNotVote) {
  // Window D holds the read's k-mers 1-6 in place, and k-mer 0 sits two
  // bases before D: within +-e diagonals, but outside the window.  With
  // n = 12 and e = 5 a window needs 7 supporting seeds, so D must go
  // although counting the outside hit would keep it.
  GenomeProfile random;
  random.repeat_families = 0;
  random.n_runs_per_mb = 0.0;
  std::string genome = GenerateGenome(20000, 7, random);
  const std::string read = GenerateGenome(kLength, 8, random);
  constexpr std::size_t kD = 5000;
  genome.replace(kD - 2, kK, read, 0, kK);
  genome.replace(kD + kK, 6 * kK, read, kK, 6 * kK);
  genome[kD + 6] = ComplementBase(read[6]);  // k-mer 0 misses D itself
  MapperConfig cfg;
  cfg.k = kK;
  cfg.read_length = kLength;
  cfg.error_threshold = 5;
  cfg.verify_threads = 1;
  const ReadMapper mapper(genome, cfg);
  const std::vector<std::string> reads = {read};
  const auto forward_has = [&](SeedVote vote, std::int64_t pos) {
    const std::vector<OrientedCandidate> got = Seed(mapper, reads, vote)[0];
    return std::any_of(got.begin(), got.end(),
                       [&](const OrientedCandidate& c) {
                         return c.strand == 0 && c.pos == pos;
                       });
  };
  const auto d = static_cast<std::int64_t>(kD);
  ASSERT_TRUE(forward_has(SeedVote::kOff, d));
  EXPECT_FALSE(forward_has(SeedVote::kOn, d));
  // D - 2 holds all seven inside its own window and stays.
  EXPECT_TRUE(forward_has(SeedVote::kOn, d - 2));
}

// --- The kernel's paths against the brute-force oracles ----------------
//
// The seeding kernel drops a voting sequence's lone hits (no other hit in
// its diagonal bucket or either neighbour, buckets of 2^s > e diagonals
// counted in a table of kCountSlots = 1024 slots) before it sorts the rest,
// counts a lone pigeonhole hit as voted out only where its window lies
// inside one chromosome, and sorts a sequence of more than 255 hits whole.
// Each case below drives one of those paths and checks every read against
// OracleCandidates / VotedOracleCandidates and the funnel.

/// Seeds `reads` with the vote off and on, expects each read's candidates
/// to equal the oracles' and what the vote emits plus what it cut to equal
/// the pigeonhole count, and returns the cut.
std::uint64_t ExpectOracleCandidates(const ReadMapper& mapper,
                                     const std::vector<std::string>& reads) {
  const ReferenceSet& ref = mapper.reference();
  const MapperConfig& cfg = mapper.config();
  const auto pairs = [](const std::vector<OrientedCandidate>& candidates) {
    std::vector<std::pair<std::int64_t, int>> out;
    for (const OrientedCandidate& c : candidates) {
      out.emplace_back(c.pos, c.strand);
    }
    return out;
  };
  const std::vector<std::vector<OrientedCandidate>> pigeonhole =
      Seed(mapper, reads, SeedVote::kOff);
  const double seeded0 = Total("gkgpu_candidates_seeded_total");
  const double voted_out0 = Total("gkgpu_candidates_voted_out_total");
  const std::vector<std::vector<OrientedCandidate>> voted =
      Seed(mapper, reads, SeedVote::kOn);
  const double cut = Total("gkgpu_candidates_voted_out_total") - voted_out0;
  std::uint64_t pigeonhole_total = 0;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const std::vector<std::pair<std::int64_t, int>> want =
        OracleCandidates(ref, cfg, reads[r]);
    EXPECT_EQ(pairs(pigeonhole[r]), want) << "read " << r << ", unvoted";
    EXPECT_EQ(pairs(voted[r]), VotedOracleCandidates(ref, cfg, reads[r], want))
        << "read " << r << ", voted";
    pigeonhole_total += want.size();
  }
  EXPECT_EQ(Total("gkgpu_candidates_seeded_total") - seeded0 + cut,
            static_cast<double>(pigeonhole_total));
  return static_cast<std::uint64_t>(cut);
}

MapperConfig VoteConfig(int e, int length = kLength) {
  MapperConfig cfg;
  cfg.k = kK;
  cfg.read_length = length;
  cfg.error_threshold = e;
  cfg.verify_threads = 1;
  return cfg;
}

GenomeProfile RandomProfile() {
  GenomeProfile random;
  random.repeat_families = 0;
  random.n_runs_per_mb = 0.0;
  return random;
}

/// The text occurrences of `seq`'s first n non-overlapping k-mers: the raw
/// hits the kernel gathers for it.
std::size_t RawHits(std::string_view text, std::string_view seq, int n) {
  std::size_t hits = 0;
  for (int s = 0; s < n; ++s) {
    const std::string_view kmer = seq.substr(static_cast<std::size_t>(s * kK),
                                             static_cast<std::size_t>(kK));
    for (std::size_t at = text.find(kmer); at != std::string_view::npos;
         at = text.find(kmer, at + 1)) {
      ++hits;
    }
  }
  return hits;
}

TEST(SeedVoteKernelTest, TandemRepeatHitsOverflowTheCountTableAndSortWhole) {
  // chr2 holds 110 copies of a 37 bp unit: a read from it has ~1,300 raw
  // hits, past the 255 the count table takes, so its forward strand is
  // sorted whole; its reverse strand and the other reads take the
  // lone-hit pass.  The vote cuts the windows that reach out of the repeat.
  const GenomeProfile random = RandomProfile();
  const std::string unit = GenerateGenome(37, 21, random);
  std::string tandem = GenerateGenome(500, 22, random);
  for (int copy = 0; copy < 110; ++copy) tandem += unit;
  tandem += GenerateGenome(500, 23, random);
  ReferenceSet ref;
  ref.Add("chr1", GenerateGenome(kChromosomeLength, 24, random));
  ref.Add("chr2", tandem);
  ref.Add("chr3", GenerateGenome(kChromosomeLength, 25, random));
  const std::string_view text = ref.text();
  const std::int64_t repeat = ref.chromosome(1).offset + 500;

  Rng rng(26);
  std::vector<std::string> reads;
  for (int edits = 0; edits <= 4; ++edits) {
    // Inside the repeat, and reaching out of either end of it.
    for (const std::int64_t at : {repeat + 1000, repeat - 60,
                                  repeat + 110 * 37 - 40}) {
      reads.push_back(EditedRead(text, at + edits, edits, rng));
    }
  }
  for (std::string& r : SimulateReadSequences(
           text, 20, kLength, ReadErrorProfile::Illumina(), 27)) {
    reads.push_back(std::move(r));
  }
  for (std::size_t i = 1; i < reads.size(); i += 2) {
    reads[i] = ReverseComplement(reads[i]);
  }
  ASSERT_GT(RawHits(text, reads[0], kLength / kK), 255u);

  for (const int e : {2, 3, 5}) {
    SCOPED_TRACE("e = " + std::to_string(e));
    const ReadMapper mapper(ref, VoteConfig(e));
    EXPECT_GT(ExpectOracleCandidates(mapper, reads), 0u);
    // Every unit copy of the repeat is a candidate of the reads inside it.
    EXPECT_GT(OracleCandidates(ref, mapper.config(), reads[0]).size(), 100u);
  }

  // A 512 bp poly-A read in a 1,000 bp poly-A run: 64 seeds on every
  // diagonal, so each 4-diagonal bucket at e = 3 holds exactly 256 hits,
  // which a uint8 slot would wrap to 0.
  ReferenceSet poly;
  poly.Add("chr1", GenerateGenome(kChromosomeLength, 28, random) +
                       std::string(1000, 'A') +
                       GenerateGenome(kChromosomeLength, 29, random));
  const std::vector<std::string> poly_reads = {
      std::string(512, 'A'), "C" + std::string(510, 'A') + "G"};
  const ReadMapper poly_mapper(poly, VoteConfig(3, 512));
  ExpectOracleCandidates(poly_mapper, poly_reads);
  EXPECT_GT(OracleCandidates(poly, poly_mapper.config(), poly_reads[0]).size(),
            400u);
}

TEST(SeedVoteKernelTest, LoneHitsCountOnlyWhereTheirWindowFitsOneChromosome) {
  // Reads of random bases with single genome k-mers spliced in, so each
  // spliced k-mer is a lone hit: a pigeonhole seed (0-3 at e = 3) whose
  // window starts before the genome, ends past it, straddles a junction
  // or lies inside a chromosome, and a non-pigeonhole seed inside one.
  // Only the pigeonhole hit inside a chromosome is a voted-out window.
  const GenomeProfile random = RandomProfile();
  const ReferenceSet ref = MakeReference(random, 40);
  const std::string_view text = ref.text();
  const std::int64_t len = ref.length();
  const std::int64_t junction = ref.chromosome(2).offset;
  struct Splice {
    int seed;
    std::int64_t at;  // text position of the spliced k-mer
  };
  const std::vector<std::vector<Splice>> layouts = {
      {{2, 0}},                    // window starts at -16
      {{0, len - kK}},             // ends 92 bases past the genome
      {{3, len - 2 * kK}},         // ends 68 bases past it
      {{1, junction - 30}},        // straddles chr2/chr3
      {{0, junction - 50}},        // straddles it by 50 bases
      {{3, junction + 500}},       // inside chr3: voted out
      {{7, junction + 900}},       // not a pigeonhole seed
      {{1, 40}, {2, len - 300}},   // two lone hits, one voted out
      {{0, 5}, {3, junction - 60}, {6, 1500}},
  };
  std::vector<std::string> reads;
  std::uint64_t seed = 41;
  for (const std::vector<Splice>& layout : layouts) {
    std::string read = GenerateGenome(kLength, seed++, random);
    for (const Splice& s : layout) {
      read.replace(static_cast<std::size_t>(s.seed * kK), kK,
                   text.substr(static_cast<std::size_t>(s.at), kK));
    }
    reads.push_back(read);
    reads.push_back(ReverseComplement(read));  // the lone hit on strand 1
  }
  const ReadMapper mono(ref, VoteConfig(3));
  EXPECT_GT(ExpectOracleCandidates(mono, reads), 0u);
  MapperConfig sharded = VoteConfig(3);
  sharded.shard_max_bp = kChromosomeLength;
  const ReadMapper four(ref, sharded);
  ASSERT_EQ(four.index().shard_count(), 4u);
  EXPECT_GT(ExpectOracleCandidates(four, reads), 0u);
}

TEST(SeedVoteKernelTest, AliasedBucketsOnlyKeepExtraHits) {
  // At e = 3 a bucket is 4 diagonals and the table 1024 slots, so
  // diagonals 4096 apart share a slot, and buckets 1023 and 1024 (around
  // diagonal 4096) are neighbours in slots 1023 and 0.
  constexpr std::int64_t kTable = 4 * 1024;
  const GenomeProfile random = RandomProfile();
  ReferenceSet ref;
  ref.Add("chr1", GenerateGenome(3 * kTable, 50, random));
  ref.Add("chr2", GenerateGenome(kTable, 51, random));
  const std::string_view text = ref.text();
  const auto window = [&](std::int64_t at, std::int64_t n) {
    return std::string(text.substr(static_cast<std::size_t>(at),
                                   static_cast<std::size_t>(n)));
  };
  std::vector<std::string> reads;
  for (const std::int64_t d : {std::int64_t{1000}, kTable - 2, 2 * kTable}) {
    // Seeds 0 and 1 lone on diagonals d and d + 4096: one slot, so both
    // survive the count and the scan votes their windows out.
    std::string read = GenerateGenome(kLength, 52 + d, random);
    read.replace(0, kK, window(d, kK));
    read.replace(kK, kK, window(d + kTable + kK, kK));
    reads.push_back(read);
  }
  for (const std::int64_t wrap : {kTable, 2 * kTable, 3 * kTable}) {
    // A deletion after seed 0: seed 0 alone on diagonal wrap - 1 (slot
    // 1023), seeds 1-11 on wrap (slot 0).
    reads.push_back(window(wrap - 1, kK) + window(wrap + kK, kLength - kK));
    // An insertion after seed 0: seed 0 alone on diagonal wrap (slot 0),
    // seeds 1-11 on wrap - 1 (slot 1023).
    reads.push_back(window(wrap, kK) + window(wrap + kK - 1, kLength - kK));
  }
  const std::size_t constructed = reads.size();
  for (std::size_t i = 0; i < constructed; ++i) {
    reads.push_back(ReverseComplement(reads[i]));
  }
  for (const int e : {3, 2}) {
    SCOPED_TRACE("e = " + std::to_string(e));
    const ReadMapper mapper(ref, VoteConfig(e));
    EXPECT_GT(ExpectOracleCandidates(mapper, reads), 0u);
  }
}

TEST(SeedVoteKernelTest, LongReadsVoteWithBucketsOf16To64Diagonals) {
  // 300 bp reads hold 37 non-overlapping 8-mers: at e = 15, 16, 31 and 32
  // the vote needs 22, 21, 6 and 5 of them, over buckets of 16, 32, 32
  // and 64 diagonals.
  constexpr int kLong = 300;
  std::uint64_t seed = 60;
  for (const GenomeCase& g : Genomes()) {
    SCOPED_TRACE(g.name);
    seed += 10;
    const ReferenceSet ref = MakeReference(g.profile, seed);
    const std::string_view text = ref.text();
    for (const int e : {15, 16, 31, 32}) {
      SCOPED_TRACE("e = " + std::to_string(e));
      Rng rng(seed + static_cast<std::uint64_t>(e));
      std::vector<std::string> reads = SimulateReadSequences(
          text, 20, kLong, ReadErrorProfile::RichDeletion(), seed + 1);
      for (const int edits : {e / 2, e - 1, e, e + 1}) {
        for (int copy = 0; copy < 3; ++copy) {
          const std::int64_t origin = static_cast<std::int64_t>(
              rng.Uniform(text.size() - kLong - edits));
          reads.push_back(EditedRead(text, origin, edits, rng, kLong));
        }
      }
      for (std::size_t i = 1; i < reads.size(); i += 2) {
        reads[i] = ReverseComplement(reads[i]);
      }
      const ReadMapper mapper(ref, VoteConfig(e, kLong));
      ExpectOracleCandidates(mapper, reads);
    }
  }
}

}  // namespace
}  // namespace gkgpu
