// Tests for the streaming mapping path: the ordered chunk runner emits in
// input order and stops at the first failure, the drivers' per-chunk
// GateKeeper call is bit-exact with the blocking FilterCandidates path
// across chunk sizes, and the FASTQ-to-SAM driver maps what the blocking
// mapper maps, refuses an engine holding another genome, and throws a
// malformed record only after the SAM of every record before it.
#include "pipeline/ordered_chunks.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "candidate_workload.hpp"
#include "core/engine.hpp"
#include "io/fastq.hpp"
#include "mapper/mapper.hpp"
#include "obs/metrics.hpp"
#include "paired/paired.hpp"
#include "pipeline/chunk_filter.hpp"
#include "pipeline/read_to_sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

struct EngineFixture {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<GateKeeperGpuEngine> engine;

  EngineFixture(int ndev, int length, int e) {
    devices = gpusim::MakeSetup1(ndev, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, ptrs);
  }
};

MapperConfig MakeMapperConfig(int e) {
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = 100;
  mcfg.error_threshold = e;
  return mcfg;
}

// -------------------------------------------------------- chunk runner --

TEST(OrderedChunksTest, EmitsInTakeOrderAndStopsAtTheFirstFailure) {
  ThreadPool pool(4);
  struct Chunk {
    int value = 0;
  };
  for (const int fail_at : {-1, 37}) {
    SCOPED_TRACE(fail_at);
    int next = 0;
    std::vector<int> emitted;
    const auto run = [&] {
      pipeline::RunOrderedChunks<Chunk>(
          pool, pipeline::ChunkWorkers(pool),
          [&](Chunk& c) {
            if (next == 100) return false;
            c.value = next++;
            return true;
          },
          [&](Chunk& c, std::size_t) {
            // Uneven map times: later chunks often finish first.
            std::this_thread::sleep_for(
                std::chrono::microseconds((c.value * 7919) % 500));
            if (c.value == fail_at) throw std::runtime_error("chunk failed");
          },
          [&](Chunk& c) { emitted.push_back(c.value); });
    };
    if (fail_at < 0) {
      run();
    } else {
      EXPECT_THROW(run(), std::runtime_error);
    }
    // Every chunk before the failure is emitted, in order, and none after.
    const int expected = fail_at < 0 ? 100 : fail_at;
    ASSERT_EQ(emitted.size(), static_cast<std::size_t>(expected));
    for (int i = 0; i < expected; ++i) EXPECT_EQ(emitted[i], i);
  }
}

// -------------------------------------------------------- chunk filter --

TEST(CandidateStreamingTest, MatchesBlockingFilterCandidatesBitForBit) {
  const CandidateWorkload w = MakeCandidateWorkload(400, 5);
  ASSERT_GT(w.candidates.size(), 8192u);

  EngineFixture blocking(2, 100, 5);
  blocking.engine->LoadReference(w.genome);
  std::vector<PairResult> expected;
  blocking.engine->FilterCandidates(w.reads, w.candidates, &expected);

  // The workload must reach the paths a forward-only, N-free one misses:
  // reverse-strand reorientation and windows over a reference 'N' run.
  std::size_t reverse = 0;
  std::size_t ref_n_bypasses = 0;
  for (std::size_t i = 0; i < w.candidates.size(); ++i) {
    const CandidatePair& c = w.candidates[i];
    reverse += c.strand;
    const std::string_view window(w.genome.data() + c.ref_pos, 100);
    if (window.find('N') != std::string_view::npos) {
      EXPECT_EQ(expected[i].bypassed, 1) << i;
      ++ref_n_bypasses;
    }
  }
  EXPECT_GT(reverse, 0u);
  EXPECT_GT(ref_n_bypasses, 0u);

  // The drivers' call, over chunks that straddle the engine's
  // 1,024-candidate block.
  const ReadMapper mapper(w.genome, MakeMapperConfig(5));
  EngineFixture streamed(1, 100, 5);
  const pipeline::ChunkFilter filter(streamed.engine.get(), mapper);
  ASSERT_TRUE(streamed.engine->HasReference());
  const pipeline::StageHistograms stages;
  const std::vector<std::string_view> table(w.reads.begin(), w.reads.end());
  for (const std::size_t chunk : {1, 1023, 1025, 8192}) {
    std::vector<PairResult> results;
    std::vector<PairResult> part;
    for (std::size_t b = 0; b < w.candidates.size(); b += chunk) {
      const std::size_t n = std::min(chunk, w.candidates.size() - b);
      filter.Filter(table, std::span(w.candidates).subspan(b, n), stages,
                    &part);
      results.insert(results.end(), part.begin(), part.end());
    }
    ASSERT_EQ(results.size(), expected.size()) << chunk;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, expected[i].accept)
          << "chunk " << chunk << " candidate " << i;
      ASSERT_EQ(results[i].bypassed, expected[i].bypassed) << i;
      ASSERT_EQ(results[i].edits, expected[i].edits) << i;
    }
  }
}

// ---------------------------------------------------------- read-to-SAM --

/// Maps `reads` with the blocking mapper and with StreamFastqToSam, and
/// checks the streamed SAM against the blocking records line for line.
/// StreamFastqToSam seeds with the vote and MapReads without it, so
/// the streamed candidates plus the vote's cut are MapReads' candidates,
/// and the stream verifies no more pairs for the same mappings.
void ExpectStreamMatchesBlocking(const ReferenceSet& ref,
                                 const std::vector<std::string>& reads) {
  const int length = 100;
  const int e = 4;
  ReadMapper mapper(ref, MakeMapperConfig(e));

  // Blocking reference run.
  EngineFixture blocking(2, length, e);
  std::vector<MappingRecord> expected_records;
  const MappingStats expected =
      mapper.MapReads(reads, blocking.engine.get(), &expected_records);

  // Streaming run over the same reads serialized as FASTQ.
  std::stringstream fastq;
  std::vector<FastqRecord> fq;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    fq.push_back({"r" + std::to_string(i), reads[i], ""});
  }
  WriteFastq(fastq, fq);

  EngineFixture streaming(2, length, e);
  pipeline::ReadToSamConfig scfg;
  // Report-secondary keeps every verified mapping in the output, so the
  // SAM lines align 1:1 with the blocking mapper's record list.
  scfg.secondary = SecondaryPolicy::kReportSecondary;
  std::stringstream sam;
  const auto voted_out = [] {
    return obs::Registry::Global().Snapshot().Total(
        "gkgpu_candidates_voted_out_total");
  };
  const double voted_out_before = voted_out();
  const pipeline::ReadToSamStats got = pipeline::StreamFastqToSam(
      fastq, mapper, streaming.engine.get(), scfg, &sam);
  const double cut = voted_out() - voted_out_before;

  EXPECT_EQ(got.reads, reads.size());
  EXPECT_GT(cut, 0.0);
  EXPECT_EQ(static_cast<double>(got.candidates) + cut,
            static_cast<double>(expected.candidates_total));
  EXPECT_EQ(got.accepted + got.rejected, got.candidates);
  EXPECT_EQ(got.verified_pairs, got.accepted);
  EXPECT_EQ(got.mappings, expected.mappings);
  EXPECT_EQ(got.mapped_reads, expected.mapped_reads);
  EXPECT_LE(got.verified_pairs, expected.verification_pairs);

  // One SAM line per mapping, in input read order, with matching
  // chromosomes, local positions, strands and edit distances.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(sam, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), expected_records.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const MappingRecord& m = expected_records[i];
    const int chrom = ref.Locate(m.pos);
    ASSERT_GE(chrom, 0) << i;
    std::stringstream ls(lines[i]);
    std::string qname, flag, rname, pos;
    ls >> qname >> flag >> rname >> pos;
    EXPECT_EQ(qname, "r" + std::to_string(m.read_index)) << i;
    EXPECT_EQ(rname, ref.chromosome(static_cast<std::size_t>(chrom)).name)
        << i;
    EXPECT_EQ(pos, std::to_string(ref.ToLocal(chrom, m.pos) + 1)) << i;
    EXPECT_EQ((std::stoi(flag) & 0x10) != 0, m.strand != 0) << i;
    EXPECT_NE(lines[i].find("NM:i:" + std::to_string(m.edit_distance)),
              std::string::npos)
        << i;
  }
}

TEST(ReadToSamTest, MatchesBlockingMapper) {
  {
    SCOPED_TRACE("one chromosome");
    const ReferenceSet ref("synthetic_chr1", GenerateGenome(60000, 3));
    const auto reads = SimulateReadSequences(ref.text(), 400, 100,
                                             ReadErrorProfile::Illumina(), 11);
    ExpectStreamMatchesBlocking(ref, reads);
  }
  {
    SCOPED_TRACE("two chromosomes");
    ReferenceSet ref;
    ref.Add("chr1", GenerateGenome(40000, 21));
    ref.Add("chr2", GenerateGenome(25000, 22));
    // Reads sampled across the whole concatenation: some straddle the
    // chr1/chr2 junction and must simply fail to map, not crash or map
    // across it.
    const auto reads = SimulateReadSequences(ref.text(), 350, 100,
                                             ReadErrorProfile::Illumina(), 77);
    ExpectStreamMatchesBlocking(ref, reads);
  }
}

TEST(ReadToSamTest, RejectsAnEngineHoldingAnotherGenome) {
  // An engine reused across genomes — of the same length included — must
  // fail loudly, not silently filter candidates against the previously
  // loaded reference.  Paired mapping makes the same check.
  const std::string genome_a = GenerateGenome(10000, 4);
  const ReadMapper mapper(genome_a, MakeMapperConfig(5));
  const auto map_single = [&](GateKeeperGpuEngine* engine) {
    std::istringstream fastq;
    pipeline::StreamFastqToSam(fastq, mapper, engine,
                               pipeline::ReadToSamConfig{}, nullptr);
  };
  const auto map_paired = [&](GateKeeperGpuEngine* engine) {
    PairedEndMapper(mapper, PairedConfig{}).MapPairs({}, {}, engine, nullptr);
  };
  for (const std::size_t length : {10000u, 12000u}) {
    SCOPED_TRACE(length);
    EngineFixture fx(1, 100, 5);
    fx.engine->LoadReference(GenerateGenome(length, 8));
    EXPECT_THROW(map_single(fx.engine.get()), std::invalid_argument);
    EXPECT_THROW(map_paired(fx.engine.get()), std::invalid_argument);
  }
  EngineFixture loaded(1, 100, 5);
  loaded.engine->LoadReference(genome_a);
  EXPECT_NO_THROW(map_single(loaded.engine.get()));
  EXPECT_NO_THROW(map_paired(loaded.engine.get()));
  // An engine with no reference gets the mapper's genome.
  EngineFixture empty(1, 100, 5);
  EXPECT_NO_THROW(map_single(empty.engine.get()));
  EXPECT_EQ(empty.engine->reference_fingerprint(),
            mapper.reference().fingerprint());
}

TEST(ReadToSamTest, MalformedRecordThrowsAfterTheSamOfTheRecordsBeforeIt) {
  // Record 70 — inside the third 32-read chunk, with chunk boundaries on
  // both sides — carries a quality string one base short.
  const ReferenceSet ref("synthetic_chr1", GenerateGenome(60000, 3));
  const auto reads = SimulateReadSequences(ref.text(), 100, 100,
                                           ReadErrorProfile::Illumina(), 19);
  std::vector<FastqRecord> fq;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    fq.push_back({"r" + std::to_string(i), reads[i],
                  std::string(reads[i].size(), 'I')});
  }
  fq[69].qual.pop_back();
  const ReadMapper mapper(ref, MakeMapperConfig(5));
  const auto stream = [&](const std::vector<FastqRecord>& records,
                          std::ostream* sam) {
    std::stringstream fastq;
    WriteFastq(fastq, records);
    EngineFixture fx(1, 100, 5);
    pipeline::StreamFastqToSam(fastq, mapper, fx.engine.get(),
                               pipeline::ReadToSamConfig{}, sam);
  };

  std::ostringstream expected;
  stream({fq.begin(), fq.begin() + 69}, &expected);
  ASSERT_FALSE(expected.str().empty());
  std::ostringstream got;
  try {
    stream(fq, &got);
    ADD_FAILURE() << "a malformed record must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quality length mismatch: @r69"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(got.str(), expected.str());
}

}  // namespace
}  // namespace gkgpu
