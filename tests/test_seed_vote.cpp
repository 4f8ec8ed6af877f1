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
/// one of the read's 12 k-mers (drawn by a seeded shuffle): substitutions,
/// insertions and deletions in turn.  With e = edits such a read keeps just
/// n - e intact k-mers, the vote's threshold.
std::string EditedRead(std::string_view text, std::int64_t origin, int edits,
                       Rng& rng) {
  std::string read(text.substr(static_cast<std::size_t>(origin),
                               kLength + kMaxErrors));
  std::vector<int> slots(kLength / kK);
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
  read.resize(kLength);
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

}  // namespace
}  // namespace gkgpu
