// Tests for shard planning (mapper/shard.hpp) and the sharded seeding
// path: chromosome-group partitioning under a byte budget, the persisted
// plan validator, shard lookup, and the property the whole design rests
// on — a forced multi-shard mapper produces the exact candidate set and
// the exact SAM of a monolithic one, including reads at chromosome and
// shard edges.  The chunked seeding kernel is checked here against a
// brute-force string-search oracle, and the seeding counters against
// every driver's own candidate count.
#include "mapper/shard.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "encode/revcomp.hpp"
#include "filters/gatekeeper.hpp"
#include "io/paired_fastq.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "obs/metrics.hpp"
#include "paired/paired.hpp"
#include "pipeline/read_to_sam.hpp"
#include "seed_oracle.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {
namespace {

ReferenceSet MakeReference(const std::vector<std::int64_t>& lengths) {
  ReferenceSet ref;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    ref.Add("chr" + std::to_string(i + 1),
            GenerateGenome(static_cast<std::size_t>(lengths[i]), 40 + i));
  }
  return ref;
}

TEST(ShardPlanTest, DefaultBudgetIsOneShard) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500});
  const ShardPlan plan = ShardPlan::Partition(ref);
  ASSERT_EQ(plan.shard_count(), 1u);
  EXPECT_EQ(plan.shard(0).chrom_begin, 0u);
  EXPECT_EQ(plan.shard(0).chrom_end, 3u);
  EXPECT_EQ(plan.shard(0).text_offset, 0);
  EXPECT_EQ(plan.shard(0).text_length, 4500);
  EXPECT_EQ(plan.total_length(), 4500);
}

TEST(ShardPlanTest, GreedyFirstFitRespectsTheBudget) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500, 900});
  const ShardPlan plan = ShardPlan::Partition(ref, 3000);
  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(plan.shard(0).chrom_begin, 0u);
  EXPECT_EQ(plan.shard(0).chrom_end, 2u);
  EXPECT_EQ(plan.shard(0).text_length, 3000);
  EXPECT_EQ(plan.shard(1).chrom_begin, 2u);
  EXPECT_EQ(plan.shard(1).chrom_end, 4u);
  EXPECT_EQ(plan.shard(1).text_offset, 3000);
  EXPECT_EQ(plan.shard(1).text_length, 2400);
  // Shards tile the concatenated text with no gaps.
  EXPECT_EQ(plan.total_length(), ref.length());
}

TEST(ShardPlanTest, EveryChromosomeItsOwnShardUnderATightBudget) {
  const ReferenceSet ref = MakeReference({800, 600, 700});
  const ShardPlan plan = ShardPlan::Partition(ref, 800);
  ASSERT_EQ(plan.shard_count(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.shard(s).chrom_begin, s);
    EXPECT_EQ(plan.shard(s).chrom_end, s + 1);
    EXPECT_EQ(plan.shard(s).text_offset, ref.chromosome(s).offset);
    EXPECT_EQ(plan.shard(s).text_length, ref.chromosome(s).length);
  }
}

TEST(ShardPlanTest, OversizedChromosomeIsNamedInTheError) {
  const ReferenceSet ref = MakeReference({500, 1200, 400});
  EXPECT_THROW(
      {
        try {
          ShardPlan::Partition(ref, 1000);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("chr2"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);
}

TEST(ShardPlanTest, RejectsEmptyReferenceAndOversizedBudget) {
  EXPECT_THROW(ShardPlan::Partition(ReferenceSet()), std::invalid_argument);
  const ReferenceSet ref = MakeReference({100});
  EXPECT_THROW(ShardPlan::Partition(ref, std::int64_t{1} << 40),
               std::invalid_argument);
}

TEST(ShardPlanTest, ShardOfResolvesBoundaries) {
  const ReferenceSet ref = MakeReference({1000, 1000, 1000});
  const ShardPlan plan = ShardPlan::Partition(ref, 1000);
  ASSERT_EQ(plan.shard_count(), 3u);
  EXPECT_EQ(plan.ShardOf(0), 0u);
  EXPECT_EQ(plan.ShardOf(999), 0u);
  EXPECT_EQ(plan.ShardOf(1000), 1u);
  EXPECT_EQ(plan.ShardOf(1999), 1u);
  EXPECT_EQ(plan.ShardOf(2000), 2u);
  EXPECT_EQ(plan.ShardOf(2999), 2u);
}

TEST(ShardPlanTest, FromShardsAcceptsItsOwnPartitionAndRejectsDamage) {
  const ReferenceSet ref = MakeReference({1000, 2000, 1500});
  const ShardPlan plan = ShardPlan::Partition(ref, 3000);
  const ShardPlan rebuilt = ShardPlan::FromShards(plan.shards(), ref);
  ASSERT_EQ(rebuilt.shard_count(), plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    EXPECT_EQ(rebuilt.shard(s).text_offset, plan.shard(s).text_offset);
    EXPECT_EQ(rebuilt.shard(s).text_length, plan.shard(s).text_length);
  }

  // A gap in the chromosome coverage.
  std::vector<ShardInfo> gap = plan.shards();
  gap.front().chrom_end -= 1;
  EXPECT_THROW(ShardPlan::FromShards(gap, ref), std::invalid_argument);
  // A slice that disagrees with the chromosome table.
  std::vector<ShardInfo> skew = plan.shards();
  skew.back().text_length += 8;
  EXPECT_THROW(ShardPlan::FromShards(skew, ref), std::invalid_argument);
  // Dropping the tail shard leaves chromosomes uncovered.
  std::vector<ShardInfo> short_plan(plan.shards().begin(),
                                    plan.shards().end() - 1);
  EXPECT_THROW(ShardPlan::FromShards(short_plan, ref),
               std::invalid_argument);
}

// The byte-identity property.  Shard boundaries are chromosome
// boundaries and junction-spanning windows are dropped at seeding time,
// so the merged per-shard candidates must equal the monolithic ones —
// candidate for candidate, and therefore SAM byte for SAM byte.
class ShardedMappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ref_ = MakeReference({6000, 5000, 4000, 5000});
    config_.k = 8;
    config_.read_length = 64;
    config_.error_threshold = 3;
  }

  std::vector<std::string> EdgeAndBodyReads() const {
    const std::string_view text = ref_.text();
    std::vector<std::string> reads;
    for (const ChromosomeInfo& c : ref_.chromosomes()) {
      const auto at = [&](std::int64_t pos) {
        reads.emplace_back(text.substr(static_cast<std::size_t>(pos), 64));
      };
      at(c.offset);                    // first window of the chromosome
      at(c.offset + c.length - 64);    // last window
      at(c.offset + c.length / 2);     // interior
      if (c.offset + c.length < ref_.length()) {
        at(c.offset + c.length - 32);  // spans the junction: maps nowhere
      }
    }
    const auto sim = SimulateReadSequences(text, 200, 64,
                                           ReadErrorProfile::Illumina(), 71);
    reads.insert(reads.end(), sim.begin(), sim.end());
    return reads;
  }

  ReferenceSet ref_;
  MapperConfig config_;
};

TEST_F(ShardedMappingTest, CandidatesMatchMonolithicExactly) {
  ReadMapper mono(ref_, config_);
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 6000;  // every chromosome its own shard
  ReadMapper sharded(ref_, sharded_cfg);
  ASSERT_EQ(mono.index().shard_count(), 1u);
  ASSERT_EQ(sharded.index().shard_count(), 4u);

  // Both strands, voted, as every single-end driver seeds.
  const std::vector<std::string> reads = EdgeAndBodyReads();
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto flatten = [](const SeedChunk& chunk, std::size_t j) {
    std::vector<std::pair<std::int64_t, int>> out;
    for (const OrientedCandidate& c : chunk.candidates(j)) {
      out.emplace_back(c.pos, c.strand);
    }
    return out;
  };
  SeedChunk a, b;
  std::size_t total = 0;
  for (std::size_t c0 = 0; c0 < views.size(); c0 += kSeedChunkReads) {
    const std::size_t n = std::min(kSeedChunkReads, views.size() - c0);
    const auto part = std::span(views).subspan(c0, n);
    mono.SeedReads(part, &a, SeedVote::kOn);
    sharded.SeedReads(part, &b, SeedVote::kOn);
    for (std::size_t j = 0; j < part.size(); ++j) {
      EXPECT_EQ(flatten(a, j), flatten(b, j))
          << "candidate sets diverge for read " << part[j];
      total += a.candidates(j).size();
    }
  }
  EXPECT_GT(total, 0u);
}

TEST_F(ShardedMappingTest, SamOutputIsByteIdentical) {
  const std::vector<std::string> reads = EdgeAndBodyReads();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    names.push_back("r" + std::to_string(i));
  }
  const auto render = [&](const MapperConfig& cfg) {
    ReadMapper mapper(ref_, cfg);
    std::vector<MappingRecord> records;
    mapper.MapReads(reads, nullptr, &records);
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records,
                              mapper.reference());
    return sam.str();
  };
  const std::string mono = render(config_);
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 11000;  // two chromosomes per shard
  EXPECT_EQ(render(sharded_cfg), mono);
  sharded_cfg.shard_max_bp = 6000;  // four shards
  EXPECT_EQ(render(sharded_cfg), mono);
  EXPECT_FALSE(mono.empty());
}

TEST_F(ShardedMappingTest, ChunkedSeedingMatchesBruteForceOracle) {
  // N runs inside every chromosome, one right at a chromosome start.
  ReferenceSet ref;
  for (const ChromosomeInfo& c : ref_.chromosomes()) {
    std::string seq(ref_.text().substr(static_cast<std::size_t>(c.offset),
                                       static_cast<std::size_t>(c.length)));
    seq.replace(seq.size() / 3, 40, 40, 'N');
    if (c.offset == 0) seq.replace(0, 20, 20, 'N');
    ref.Add(c.name, std::move(seq));
  }
  ref_ = std::move(ref);
  std::vector<std::string> reads = EdgeAndBodyReads();
  const std::string_view text = ref_.text();
  std::string n_in_seed(text.substr(1000, 64));
  n_in_seed[2 * config_.k + 3] = 'N';  // kills the third seed only
  reads.push_back(n_in_seed);
  reads.push_back(std::string(64, 'N'));  // no seed at all
  // Every seed of both strands absent from the text: seeds, but no hits.
  std::uint64_t next_code = 0;
  const auto absent_kmer = [&] {
    for (;;) {
      std::string kmer;
      for (int i = 0, c = static_cast<int>(next_code++ * 2654435761u % 65536);
           i < config_.k; ++i, c >>= 2) {
        kmer += "ACGT"[c & 3];
      }
      if (text.find(kmer) == std::string_view::npos) return kmer;
    }
  };
  std::string hitless_read;
  for (int s = 0; s < 4; ++s) hitless_read += absent_kmer();
  for (int s = 0; s < 4; ++s) hitless_read += ReverseComplement(absent_kmer());
  reads.push_back(hitless_read);
  reads.emplace_back(text.substr(6000 - 40, 64));  // straddles chr1/chr2
  reads.emplace_back(text.substr(2000 - 32, 64));  // straddles an N run
  const std::string dup = reads[4];
  reads.insert(reads.begin() + 5, 2, dup);  // duplicates in one chunk

  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 6000;
  const ReadMapper mono(ref_, config_);
  const ReadMapper sharded(ref_, sharded_cfg);
  ASSERT_EQ(sharded.index().shard_count(), 4u);

  std::vector<std::vector<std::pair<std::int64_t, int>>> oracle;
  std::vector<std::vector<std::pair<std::int64_t, int>>> voted_oracle;
  std::size_t hitless = 0;
  std::size_t voted_out = 0;
  for (const std::string& read : reads) {
    oracle.push_back(OracleCandidates(ref_, config_, read));
    voted_oracle.push_back(
        VotedOracleCandidates(ref_, config_, read, oracle.back()));
    if (oracle.back().empty()) ++hitless;
    voted_out += oracle.back().size() - voted_oracle.back().size();
  }
  EXPECT_GE(hitless, 2u);  // the all-N read and the junction straddler
  EXPECT_GT(voted_out, 0u);  // the vote cuts something here

  const std::vector<std::string_view> views(reads.begin(), reads.end());
  for (const ReadMapper* mapper : {&mono, &sharded}) {
    for (const SeedVote vote : {SeedVote::kOff, SeedVote::kOn}) {
      const auto& want = vote == SeedVote::kOn ? voted_oracle : oracle;
      for (const std::size_t chunk_reads :
           {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{32},
            std::size_t{33}, views.size()}) {
        SeedChunk chunk;
        for (std::size_t c0 = 0; c0 < views.size(); c0 += chunk_reads) {
          const std::size_t n = std::min(chunk_reads, views.size() - c0);
          mapper->SeedReads(std::span(views).subspan(c0, n), &chunk, vote);
          ASSERT_EQ(chunk.size(), n);
          for (std::size_t j = 0; j < n; ++j) {
            std::vector<std::pair<std::int64_t, int>> got;
            for (const OrientedCandidate& oc : chunk.candidates(j)) {
              got.emplace_back(oc.pos, oc.strand);
            }
            EXPECT_EQ(got, want[c0 + j])
                << "read " << c0 + j << ", chunks of " << chunk_reads << ", "
                << mapper->index().shard_count() << " shard(s), vote "
                << (vote == SeedVote::kOn ? "on" : "off");
            EXPECT_EQ(chunk.rc(j), ReverseComplement(reads[c0 + j]));
          }
        }
      }
    }
  }
}

/// Registry deltas of the three seeding families across `run`.
struct SeedDeltas {
  double seeded = 0.0;  // gkgpu_candidates_seeded_total
  double shards = 0.0;  // gkgpu_shard_candidates_total, every shard
  double voted_out = 0.0;  // gkgpu_candidates_voted_out_total
  double filter_input = 0.0;
};

template <typename Run>
SeedDeltas SeedCounterDeltas(Run run) {
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  run();
  const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
  const auto delta = [&](std::string_view name) {
    return after.Total(name) - before.Total(name);
  };
  SeedDeltas d;
  d.seeded = delta("gkgpu_candidates_seeded_total");
  d.shards = delta("gkgpu_shard_candidates_total");
  d.voted_out = delta("gkgpu_candidates_voted_out_total");
  d.filter_input = delta("gkgpu_filter_input_total");
  return d;
}

std::string ToFastq(const std::vector<std::string>& seqs,
                    const std::string& prefix) {
  std::string out;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    out += "@" + prefix + std::to_string(i) + "\n" + seqs[i] + "\n+\n" +
           std::string(seqs[i].size(), 'I') + "\n";
  }
  return out;
}

TEST_F(ShardedMappingTest, ShardCandidateTallySumsToTotal) {
  // Every mapping path seeds through the one kernel, which publishes all
  // three seeding families; on a 2-shard index the two counts of what it
  // emits must agree with each other and with the path's candidate count
  // (its own where it keeps one, else the filter's input), and where the
  // path votes the emitted plus the voted-out candidates must add up to
  // MapReads' unvoted count.
  MapperConfig sharded_cfg = config_;
  sharded_cfg.shard_max_bp = 11000;  // two chromosomes per shard
  ReadMapper mapper(ref_, sharded_cfg);
  ASSERT_EQ(mapper.index().shard_count(), 2u);
  const auto expect_agree = [](const SeedDeltas& d, double own,
                               const char* driver) {
    EXPECT_GT(own, 0.0) << driver;
    EXPECT_EQ(d.seeded, own) << driver;
    EXPECT_EQ(d.shards, own) << driver;
  };

  std::vector<std::string> reads = EdgeAndBodyReads();
  reads.emplace_back(64, 'N');  // no seed: the daemon retires it unbatched
  MappingStats blocking;
  const SeedDeltas blocking_d =
      SeedCounterDeltas([&] { blocking = mapper.MapReads(reads, nullptr); });
  expect_agree(blocking_d, static_cast<double>(blocking.candidates_total),
               "MapReads");
  EXPECT_EQ(blocking_d.voted_out, 0.0);  // MapReads seeds unvoted
  const double pigeonhole = static_cast<double>(blocking.candidates_total);

  const GateKeeperFilter gatekeeper;

  // The stream keeps no candidate count of its own either: every seeded
  // candidate is presented to the filter.
  const std::string fastq_text = ToFastq(reads, "r");
  const SeedDeltas stream_d = SeedCounterDeltas([&] {
    std::istringstream fastq(fastq_text);
    pipeline::StreamFastqToSam(fastq, mapper, &gatekeeper,
                               pipeline::ReadToSamConfig{}, nullptr);
  });
  expect_agree(stream_d, stream_d.filter_input, "StreamFastqToSam");
  EXPECT_GT(stream_d.voted_out, 0.0);
  EXPECT_EQ(stream_d.seeded + stream_d.voted_out, pigeonhole);

  PairSimConfig pair_cfg;
  pair_cfg.read_length = config_.read_length;
  pair_cfg.insert_mean = 200.0;
  pair_cfg.insert_sd = 20.0;
  std::vector<std::string> mates1, mates2;
  for (std::size_t c = 0; c < ref_.chromosome_count(); ++c) {
    const ChromosomeInfo& info = ref_.chromosome(c);
    for (const SimulatedPair& p : SimulatePairs(
             ref_.text().substr(static_cast<std::size_t>(info.offset),
                                static_cast<std::size_t>(info.length)),
             40, pair_cfg, 80 + c)) {
      mates1.push_back(p.seq1);
      mates2.push_back(p.seq2);
    }
  }
  PairedConfig pconf;
  pconf.max_insert = 400;
  PairedStats paired;
  const SeedDeltas paired_d = SeedCounterDeltas([&] {
    std::istringstream fq1(ToFastq(mates1, "p"));
    std::istringstream fq2(ToFastq(mates2, "p"));
    PairedFastqReader reader(fq1, fq2);
    std::ostringstream sam;
    paired = PairedEndMapper(mapper, pconf).MapPairs(reader, &gatekeeper, &sam);
  });
  expect_agree(paired_d, static_cast<double>(paired.candidates_seeded),
               "MapPairs");
  EXPECT_EQ(paired_d.voted_out, 0.0);  // paired mapping seeds unvoted

  // Nor does the daemon keep a per-job one, and a job seeds what the
  // standalone stream seeded on the same reads.
  serve::ServeConfig scfg;
  scfg.socket_path =
      (std::filesystem::temp_directory_path() /
       ("gkgpu_shard_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  scfg.threads = 2;
  const SeedDeltas served_d = SeedCounterDeltas([&] {
    serve::MapServer server(mapper, &gatekeeper, scfg);
    std::thread run([&] { server.Run(); });
    for (int i = 0; i < 2000 && !server.serving(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(server.serving());
    std::istringstream fastq(fastq_text);
    std::ostringstream sam;
    serve::MapOverSocket(scfg.socket_path, fastq, sam);
    server.Shutdown();
    run.join();
  });
  expect_agree(served_d, served_d.filter_input, "served job");
  EXPECT_EQ(served_d.seeded, stream_d.seeded);
  EXPECT_EQ(served_d.seeded + served_d.voted_out, pigeonhole);

  // Single-shard runs carry no per-shard breakdown.
  const SeedDeltas mono = SeedCounterDeltas([&] {
    ReadMapper local(ref_, config_);
    local.MapReads(reads, nullptr);
  });
  EXPECT_EQ(mono.seeded, static_cast<double>(blocking.candidates_total));
  EXPECT_EQ(mono.shards, 0.0);
}

TEST_F(ShardedMappingTest, ConcurrentBuildMatchesSerial) {
  SeedConfig scfg;
  scfg.k = 8;
  scfg.shard_max_bp = 6000;
  ThreadPool pool(4);
  const SeedIndex serial = SeedIndex::Build(ref_, scfg);
  const SeedIndex parallel = SeedIndex::Build(ref_, scfg, &pool);
  ASSERT_GT(serial.shard_count(), 1u);
  ASSERT_EQ(serial.shard_count(), parallel.shard_count());
  EXPECT_EQ(serial.indexed_positions(), parallel.indexed_positions());
  for (std::size_t s = 0; s < serial.shard_count(); ++s) {
    const KmerIndex& a = serial.shard(s);
    const KmerIndex& b = parallel.shard(s);
    EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets())) << "shard " << s;
    EXPECT_TRUE(std::ranges::equal(a.positions(), b.positions()))
        << "shard " << s;
  }
}

}  // namespace
}  // namespace gkgpu
