// Tests for (w,k) minimizer selection (mapper/minimizer.hpp) and the
// minimizer seeding path: the streaming winnowing against a brute-force
// per-window reference implementation, the shared-substring selection
// guarantee, N handling, and the end-to-end property the bench gates —
// on the filter-free (lossless) mapping path, minimizer seeding maps
// exactly the reads dense seeding maps, from a fraction of the candidate
// volume of the exhaustive every-read-k-mer scheme winnowing subsamples.
#include "mapper/minimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/revcomp.hpp"
#include "mapper/mapper.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

int BaseCode(char c) {
  switch (c) {
    case 'A': return 0;
    case 'C': return 1;
    case 'G': return 2;
    case 'T': return 3;
    default: return -1;
  }
}

/// Brute force: every window of w consecutive valid k-mers selects its
/// hash-minimal k-mer, rightmost on ties; selected positions dedup.
std::vector<MinimizerHit> BruteForceMinimizers(std::string_view seq, int k,
                                               int w) {
  const std::int64_t n = static_cast<std::int64_t>(seq.size());
  const std::int64_t kmers = n - k + 1;
  std::vector<std::int64_t> codes(kmers > 0 ? kmers : 0, -1);
  for (std::int64_t i = 0; i + k <= n; ++i) {
    std::uint64_t code = 0;
    bool valid = true;
    for (int j = 0; j < k; ++j) {
      const int b = BaseCode(seq[static_cast<std::size_t>(i + j)]);
      if (b < 0) {
        valid = false;
        break;
      }
      code = code << 2 | static_cast<std::uint64_t>(b);
    }
    if (valid) codes[i] = static_cast<std::int64_t>(code);
  }
  std::vector<MinimizerHit> out;
  std::int64_t last = -1;
  for (std::int64_t win = 0; win + w <= kmers; ++win) {
    std::int64_t best = -1;
    std::uint64_t best_hash = 0;
    bool ok = true;
    for (std::int64_t i = win; i < win + w; ++i) {
      if (codes[i] < 0) {
        ok = false;
        break;
      }
      const std::uint64_t h =
          MinimizerHash(static_cast<std::uint64_t>(codes[i]));
      if (best < 0 || h <= best_hash) {  // rightmost minimal wins
        best = i;
        best_hash = h;
      }
    }
    if (!ok || best == last) continue;
    out.push_back(MinimizerHit{static_cast<std::uint64_t>(codes[best]),
                               static_cast<std::uint32_t>(best)});
    last = best;
  }
  return out;
}

std::string RandomSequence(std::size_t n, std::uint64_t seed,
                           double n_rate = 0.0) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> base(0, 3);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::string s(n, 'A');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = coin(rng) < n_rate ? 'N' : "ACGT"[base(rng)];
  }
  return s;
}

void ExpectSameHits(const std::vector<MinimizerHit>& got,
                    const std::vector<MinimizerHit>& want,
                    const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << tag << " hit " << i;
    EXPECT_EQ(got[i].code, want[i].code) << tag << " hit " << i;
  }
}

TEST(MinimizerTest, MatchesBruteForceAcrossParameters) {
  for (const int k : {4, 7, 12}) {
    for (const int w : {1, 3, 5, 16}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const std::string seq = RandomSequence(500, seed * 977 + k + w);
        std::vector<MinimizerHit> got;
        CollectMinimizers(seq, k, w, &got);
        ExpectSameHits(got, BruteForceMinimizers(seq, k, w),
                       "k=" + std::to_string(k) + " w=" + std::to_string(w) +
                           " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(MinimizerTest, MatchesBruteForceWithUnknownBases) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::string seq = RandomSequence(400, seed, 0.02);
    std::vector<MinimizerHit> got;
    CollectMinimizers(seq, 8, 4, &got);
    ExpectSameHits(got, BruteForceMinimizers(seq, 8, 4),
                   "seed=" + std::to_string(seed));
    // No selected k-mer may contain an 'N'.
    for (const MinimizerHit& h : got) {
      EXPECT_EQ(seq.substr(h.pos, 8).find('N'), std::string::npos);
    }
  }
}

TEST(MinimizerTest, ShortAndDegenerateSequences) {
  std::vector<MinimizerHit> out;
  CollectMinimizers("", 8, 4, &out);
  EXPECT_TRUE(out.empty());
  CollectMinimizers("ACGTACGTAC", 8, 4, &out);  // < w+k-1 bases
  EXPECT_TRUE(out.empty());
  CollectMinimizers(std::string(50, 'N'), 8, 4, &out);
  EXPECT_TRUE(out.empty());
  // Exactly one window.
  const std::string seq = RandomSequence(11, 5);  // w+k-1 with k=8, w=4
  CollectMinimizers(seq, 8, 4, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(MinimizerTest, DensityTracksTheWinnowingExpectation) {
  // Random sequence selects ~2/(w+1) of positions — the sampling rate the
  // candidate-reduction story depends on.
  const std::string seq = RandomSequence(4000, 207);
  std::vector<MinimizerHit> out;
  CollectMinimizers(seq, 12, 5, &out);
  const double density =
      static_cast<double>(out.size()) / static_cast<double>(seq.size());
  EXPECT_GT(density, 1.5 / 6.0);
  EXPECT_LT(density, 2.5 / 6.0);
}

TEST(MinimizerTest, SharedSubstringSelectsSameRelativePositions) {
  // The guarantee: a window of w k-mers fully inside a shared error-free
  // stretch selects the same k-mer at the same relative offset on both
  // sides.  Embed one 60 bp block in two different contexts and intersect
  // the selections that fall wholly inside it.
  const std::string block = RandomSequence(60, 99);
  const std::string left = RandomSequence(80, 100);
  const std::string right = RandomSequence(80, 101);
  const int k = 12, w = 5;
  const auto interior = [&](const std::string& host, std::size_t at) {
    std::vector<MinimizerHit> hits;
    CollectMinimizers(host, k, w, &hits);
    // Keep selections whose full window context lies inside the block, so
    // selection cannot depend on the host.
    std::vector<std::uint32_t> rel;
    for (const MinimizerHit& h : hits) {
      if (h.pos >= at + (w - 1) && h.pos + k + (w - 1) <= at + 60) {
        rel.push_back(h.pos - static_cast<std::uint32_t>(at));
      }
    }
    return rel;
  };
  const auto a = interior(left + block + left, 80);
  const auto b = interior(right + block + right, 80);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

/// The unwinnowed counterpart of minimizer seeding: every k-mer of the
/// read (both strands) against the dense index, window-checked and
/// deduplicated per strand like the mapper's seeders.  Winnowing
/// subsamples exactly this scheme — the pigeonhole seeder belongs to a
/// different sensitivity class (its e+1 exact lookups need a dense index)
/// and is not the comparison the reduction claim makes.
std::uint64_t ExhaustiveDenseCandidates(
    const ReadMapper& mapper, const std::vector<std::string>& reads) {
  const SeedIndex& idx = mapper.index();
  const ReferenceSet& ref = mapper.reference();
  const int k = idx.k();
  const std::int64_t genome_len = ref.length();
  std::uint64_t total = 0;
  std::vector<std::int64_t> cands;
  std::string rc;
  for (const std::string& read : reads) {
    const int L = static_cast<int>(read.size());
    ReverseComplementInto(read, &rc);
    for (const std::string_view seq :
         {std::string_view(read), std::string_view(rc)}) {
      cands.clear();
      for (int i = 0; i + k <= L; ++i) {
        const std::int64_t code = idx.shard(0).Encode(
            seq.substr(static_cast<std::size_t>(i),
                       static_cast<std::size_t>(k)));
        if (code < 0) continue;
        for (const std::uint32_t pos : idx.shard(0).LookupCode(code)) {
          const std::int64_t start = static_cast<std::int64_t>(pos) - i;
          if (start < 0 || start + L > genome_len) continue;
          cands.push_back(start);
        }
      }
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
      total += cands.size();
    }
  }
  return total;
}

TEST(MinimizerMappingTest, LosslessAndSparserThanExhaustiveDense) {
  GenomeProfile gp;
  gp.repeat_families = 8;
  gp.repeat_copies = 6;
  const ReferenceSet ref("chr1", GenerateGenome(120000, 77, gp));
  const auto reads = SimulateReadSequences(
      ref.text(), 400, 100, ReadErrorProfile::Illumina(), 78);

  MapperConfig cfg;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  std::uint64_t exhaustive = 0;
  const auto run = [&](SeedMode mode, MappingStats* stats) {
    MapperConfig c = cfg;
    c.seed_mode = mode;
    ReadMapper mapper(ref, c);
    if (mode == SeedMode::kDense) {
      exhaustive = ExhaustiveDenseCandidates(mapper, reads);
    }
    std::vector<MappingRecord> records;
    *stats = mapper.MapReads(reads, nullptr, &records);
    std::vector<char> mapped(reads.size(), 0);
    for (const MappingRecord& m : records) mapped[m.read_index] = 1;
    return mapped;
  };
  MappingStats dense_stats, min_stats;
  const std::vector<char> dense = run(SeedMode::kDense, &dense_stats);
  const std::vector<char> sparse = run(SeedMode::kMinimizer, &min_stats);

  // Equivalence on the lossless path: a read within e=5 edits of its
  // 100 bp locus shares an error-free stretch of >= ceil(95/6) = 16 =
  // w+k-1 bases with it, so at least one winnowing window selects the
  // same k-mer on both sides — and the dense pigeonhole guarantee covers
  // the reverse direction.  Mapped sets must be identical.
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(sparse[i], dense[i]) << "read " << i << " mapped differently";
  }
  // Winnowing seeds a fraction of the exhaustive candidate volume (and
  // indexes a fraction of the positions), at pigeonhole-like volume.
  EXPECT_LT(min_stats.candidates_total, exhaustive);
  EXPECT_GT(min_stats.mapped_reads, 0u);
}

TEST(MinimizerMappingTest, ExactReadsAlwaysFindTheirLocus) {
  const ReferenceSet ref("chr1", GenerateGenome(50000, 31));
  MapperConfig cfg;
  cfg.read_length = 64;
  cfg.error_threshold = 3;
  cfg.seed_mode = SeedMode::kMinimizer;
  ReadMapper mapper(ref, cfg);
  const std::string_view text = ref.text();
  std::vector<std::int64_t> candidates;
  std::mt19937_64 rng(17);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t pos = static_cast<std::int64_t>(
        rng() % (text.size() - 64));
    const std::string read(text.substr(static_cast<std::size_t>(pos), 64));
    if (read.find('N') != std::string::npos) continue;
    candidates.clear();
    mapper.CollectCandidates(read, &candidates);
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), pos) !=
                candidates.end())
        << "exact read at " << pos << " not seeded";
  }
}

TEST(MinimizerMappingTest, ShardLayoutDoesNotChangeSelection) {
  // Winnowing runs per chromosome, so the sharded minimizer index must
  // seed the exact candidates of the single-shard one — and the chunked
  // kernel, whatever the chunk size, the candidates of seeding each read
  // alone.
  ReferenceSet ref;
  std::string chr_a = GenerateGenome(9000, 51);
  chr_a.replace(4000, 30, 30, 'N');
  ref.Add("chrA", chr_a);
  ref.Add("chrB", GenerateGenome(7000, 52));
  ref.Add("chrC", GenerateGenome(8000, 53));
  MapperConfig cfg;
  cfg.read_length = 64;
  cfg.error_threshold = 3;
  cfg.seed_mode = SeedMode::kMinimizer;
  ReadMapper mono(ref, cfg);
  MapperConfig sharded_cfg = cfg;
  sharded_cfg.shard_max_bp = 9000;
  ReadMapper sharded(ref, sharded_cfg);
  ASSERT_GT(sharded.index().shard_count(), 1u);

  auto reads = SimulateReadSequences(
      ref.text(), 150, 64, ReadErrorProfile::Illumina(), 54);
  reads[3][20] = 'N';
  reads.emplace_back(ref.text().substr(9000 - 30, 64));  // chrA/chrB junction
  reads.emplace_back(ref.text().substr(4000 - 20, 64));  // into the N run
  reads.emplace_back(64, 'N');
  const std::string dup = reads[9];
  reads.insert(reads.begin() + 10, 2, dup);
  std::vector<std::int64_t> a, b;
  for (const std::string& read : reads) {
    a.clear();
    b.clear();
    mono.CollectCandidates(read, &a);
    sharded.CollectCandidates(read, &b);
    EXPECT_EQ(a, b);
  }

  const std::vector<std::string_view> views(reads.begin(), reads.end());
  for (const ReadMapper* mapper : {&mono, &sharded}) {
    std::vector<std::vector<OrientedCandidate>> alone(reads.size());
    std::string rc;
    std::vector<std::int64_t> scratch;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      mapper->CollectCandidatesOriented(reads[i], &rc, &scratch, &alone[i]);
    }
    for (const std::size_t chunk_reads :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{32},
          std::size_t{33}, views.size()}) {
      SeedChunk chunk;
      for (std::size_t c0 = 0; c0 < views.size(); c0 += chunk_reads) {
        const std::size_t n = std::min(chunk_reads, views.size() - c0);
        mapper->SeedReads(std::span(views).subspan(c0, n), &chunk,
                          SeedVote::kOn);
        for (std::size_t j = 0; j < n; ++j) {
          const std::vector<OrientedCandidate>& want = alone[c0 + j];
          const std::span<const OrientedCandidate> got = chunk.candidates(j);
          ASSERT_EQ(got.size(), want.size())
              << "read " << c0 + j << ", chunks of " << chunk_reads;
          for (std::size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(got[k].pos, want[k].pos);
            EXPECT_EQ(got[k].strand, want[k].strand);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gkgpu
