// Tests for the streaming filtration pipeline: bounded-queue semantics,
// bit-exact equivalence with the blocking FilterCandidates path across
// filter-chunk boundaries, input-order restoration, verification
// correctness, error propagation, and the FASTQ-to-SAM driver.
#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "align/banded.hpp"
#include "candidate_workload.hpp"
#include "encode/revcomp.hpp"
#include "io/fastq.hpp"
#include "mapper/mapper.hpp"
#include "obs/metrics.hpp"
#include "pipeline/candidate_packer.hpp"
#include "pipeline/queue.hpp"
#include "pipeline/read_to_sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

using pipeline::BoundedQueue;
using pipeline::PairBatch;
using pipeline::PipelineConfig;
using pipeline::PipelineStats;
using pipeline::StreamingPipeline;

// ---------------------------------------------------------------- queue --

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 4; ++i) {
    const auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(2);  // must block until the consumer pops
    second_pushed.store(true);
  });
  // Give the producer a chance to (wrongly) complete.
  for (int i = 0; i < 50 && !second_pushed.load(); ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_GE(q.stats().push_wait_seconds, 0.0);
  EXPECT_EQ(q.stats().max_depth, 1u);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(8);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // drained + closed -> end of stream
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1);
  full.Push(0);
  std::thread producer([&] { EXPECT_FALSE(full.Push(1)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::yield();
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumersLoseNothing) {
  BoundedQueue<int> q(3);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (const auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const std::int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_LE(q.stats().max_depth, 3u);
  EXPECT_EQ(q.stats().pushed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(q.stats().popped, static_cast<std::uint64_t>(n));
}

// ------------------------------------------------------------- pipeline --

struct EngineFixture {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<GateKeeperGpuEngine> engine;
  ThreadPool pool{2, "test-filter"};  // the pipeline's filter workers

  EngineFixture(int ndev, int length, int e,
                std::size_t max_pairs_per_batch = 0) {
    devices = gpusim::MakeSetup1(ndev, 2);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    cfg.max_pairs_per_batch = max_pairs_per_batch;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, ptrs);
  }
};

TEST(StreamingPipelineTest, OrderedSinkRestoresInputOrder) {
  const CandidateWorkload w = MakeCandidateWorkload(600, 17);
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 128;  // many small batches, encoded out of order
  cfg.encode_workers = 3;
  cfg.verify_workers = 2;
  cfg.verify = false;
  cfg.reference_text = w.genome;
  StreamingPipeline pipe(fx.engine.get(), &fx.pool, cfg);

  std::size_t offset = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    return FillCandidateBatch(w, 128, &offset, batch);
  };
  std::uint64_t expected_seq = 0;
  std::size_t expected_first = 0;
  const pipeline::BatchSink sink = [&](PairBatch&& batch) {
    EXPECT_EQ(batch.seq, expected_seq);
    EXPECT_EQ(batch.first_pair, expected_first);
    // Provenance rides along untouched: the batch holds the next
    // candidates of the input, in order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.read_index[i],
                w.candidates[expected_first + i].read_index);
    }
    ++expected_seq;
    expected_first += batch.size();
  };
  pipe.Run(source, sink);
  EXPECT_EQ(expected_first, w.candidates.size());
}

TEST(StreamingPipelineTest, SourceErrorPropagates) {
  const CandidateWorkload w = MakeCandidateWorkload(200, 5);
  ASSERT_GT(w.candidates.size(), 3u * 64u);  // the source fails first
  EngineFixture fx(1, 100, 3);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 64;
  cfg.reference_text = w.genome;
  StreamingPipeline pipe(fx.engine.get(), &fx.pool, cfg);
  std::size_t offset = 0;
  int calls = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (++calls > 3) throw std::runtime_error("synthetic source failure");
    return FillCandidateBatch(w, 64, &offset, batch);
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(StreamingPipelineTest, OversizedBatchIsRejected) {
  const CandidateWorkload w = MakeCandidateWorkload(100, 7);
  ASSERT_GE(w.candidates.size(), 64u);
  EngineFixture fx(1, 100, 3);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 32;
  cfg.reference_text = w.genome;
  StreamingPipeline pipe(fx.engine.get(), &fx.pool, cfg);
  std::size_t offset = 0;
  const pipeline::BatchSource source = [&](PairBatch* batch) {
    if (offset > 0) return false;
    batch->target_size = 64;  // ignore the budget: 64 into a 32 pipeline
    return FillCandidateBatch(w, 64, &offset, batch);
  };
  const pipeline::BatchSink sink = [](PairBatch&&) {};
  EXPECT_THROW(pipe.Run(source, sink), std::runtime_error);
}

TEST(StreamingPipelineTest, EmptyStreamCompletesCleanly) {
  const std::string genome = GenerateGenome(10000, 4);
  EngineFixture fx(1, 100, 3);
  fx.engine->LoadReference(genome);
  PipelineConfig cfg;
  cfg.reference_text = genome;
  StreamingPipeline pipe(fx.engine.get(), &fx.pool, cfg);
  const pipeline::BatchSource source = [](PairBatch*) { return false; };
  int sunk = 0;
  const pipeline::BatchSink sink = [&](PairBatch&&) { ++sunk; };
  const PipelineStats stats = pipe.Run(source, sink);
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(sunk, 0);
}

TEST(StreamingPipelineTest, StatsAreInternallyConsistent) {
  const CandidateWorkload w = MakeCandidateWorkload(800, 37);
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 500;
  std::vector<PairResult> results;
  const PipelineStats stats =
      RunCandidateStream(fx.engine.get(), &fx.pool, cfg, w, 500, &results);
  EXPECT_EQ(stats.pairs, w.candidates.size());
  EXPECT_EQ(stats.accepted + stats.rejected, stats.pairs);
  EXPECT_LE(stats.bypassed, stats.accepted);
  EXPECT_EQ(stats.batches, (w.candidates.size() + 499) / 500);
  EXPECT_GT(stats.encode_seconds, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.stages.size(), 5u);
  EXPECT_EQ(stats.stages[1].items, stats.pairs);  // encode saw every pair
  EXPECT_EQ(stats.stages[2].items, stats.pairs);  // filter saw every pair
  EXPECT_EQ(stats.stages[2].workers, 1);          // one filter driver
  // Queue reports: source, encoded, filtered and done.
  ASSERT_EQ(stats.queues.size(), 4u);
  for (const auto& q : stats.queues) {
    EXPECT_LE(q.stats.max_depth, q.capacity) << q.name;
    EXPECT_EQ(q.stats.pushed, q.stats.popped) << q.name;
  }
}

TEST(StreamingPipelineTest, RequiresReferenceText) {
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(GenerateGenome(10000, 4));
  PipelineConfig cfg;  // reference_text left empty
  EXPECT_THROW(StreamingPipeline(fx.engine.get(), &fx.pool, cfg),
               std::invalid_argument);
}

// ------------------------------------------------------- candidate mode --

TEST(CandidatePackerTest, DuplicateSequencesShareOneTableEntry) {
  // Five reads, three distinct sequences, two candidates each, fetched
  // through one reused buffer — the packer must key the table by content
  // and route every candidate's read_index to the shared entry.
  const std::string seq_a(100, 'A');
  const std::string seq_b = seq_a.substr(0, 50) + std::string(50, 'C');
  const std::string seq_c = std::string(50, 'G') + seq_a.substr(0, 50);
  const std::vector<std::string> reads = {seq_a, seq_b, seq_a, seq_c, seq_b};

  PairBatch batch;
  pipeline::CandidateStream stream;
  std::size_t next = 0;
  std::string buf;
  pipeline::PackCandidateBatch(
      &batch, 100, &stream,
      [&](std::vector<OrientedCandidate>* positions) -> const std::string* {
        if (next >= reads.size()) return nullptr;
        positions->push_back({static_cast<std::int64_t>(next) * 10, 0});
        positions->push_back({static_cast<std::int64_t>(next) * 10 + 3, 1});
        buf = reads[next++];
        return &buf;
      },
      [](const OrientedCandidate&, bool) {});

  ASSERT_EQ(batch.candidates.size(), 10u);
  // Read table deduplicated to the three distinct sequences, in first-use
  // order.
  ASSERT_EQ(batch.cand_reads.size(), 3u);
  EXPECT_EQ(batch.cand_reads[0], seq_a);
  EXPECT_EQ(batch.cand_reads[1], seq_b);
  EXPECT_EQ(batch.cand_reads[2], seq_c);
  for (std::size_t i = 0; i < batch.candidates.size(); ++i) {
    const CandidatePair& c = batch.candidates[i];
    EXPECT_EQ(batch.cand_reads[c.read_index], reads[i / 2]) << i;
    EXPECT_EQ(c.ref_pos,
              static_cast<std::int64_t>(i / 2) * 10 +
                  (i % 2 == 0 ? 0 : 3))
        << i;
  }
}

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

  // Batch sizes straddle the filter stage's 1,024-candidate chunk.
  EngineFixture streamed(1, 100, 5);
  streamed.engine->LoadReference(w.genome);
  ASSERT_EQ(streamed.engine->plan().threads_per_block, 1024);
  for (const std::size_t batch : {1, 1023, 1025, 8192}) {
    PipelineConfig cfg;
    cfg.batch_size = batch;
    cfg.verify = false;
    std::vector<PairResult> results;
    const PipelineStats stats = RunCandidateStream(
        streamed.engine.get(), &streamed.pool, cfg, w, batch, &results);
    ASSERT_EQ(results.size(), expected.size()) << batch;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].accept, expected[i].accept)
          << "batch " << batch << " candidate " << i;
      ASSERT_EQ(results[i].bypassed, expected[i].bypassed) << i;
      ASSERT_EQ(results[i].edits, expected[i].edits) << i;
    }
    EXPECT_EQ(stats.pairs, w.candidates.size());
    EXPECT_EQ(stats.batches, (w.candidates.size() + batch - 1) / batch);
  }
}

TEST(CandidateStreamingTest, VerificationSlicesWindowsFromReferenceText) {
  const CandidateWorkload w = MakeCandidateWorkload(120, 9);
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 128;
  cfg.verify = true;
  std::vector<PairResult> results;
  std::vector<int> edits;
  RunCandidateStream(fx.engine.get(), &fx.pool, cfg, w, 128, &results,
                     &edits);
  std::uint64_t verified = 0;
  for (std::size_t i = 0; i < w.candidates.size(); ++i) {
    const CandidatePair c = w.candidates[i];
    const std::string_view window(w.genome.data() + c.ref_pos, 100);
    const std::string& read = w.reads[c.read_index];
    if (results[i].accept) {
      EXPECT_EQ(edits[i], BandedEditDistance(c.strand != 0
                                                 ? ReverseComplement(read)
                                                 : read,
                                             window, 5))
          << i;
      verified += edits[i] >= 0;
    } else {
      EXPECT_EQ(edits[i], -1) << i;
    }
  }
  EXPECT_GT(verified, 0u);
}

TEST(CandidateStreamingTest, AdaptiveCandidateRunStaysBitExact) {
  const CandidateWorkload w = MakeCandidateWorkload(200, 13);
  EngineFixture blocking(2, 100, 5);
  blocking.engine->LoadReference(w.genome);
  std::vector<PairResult> expected;
  blocking.engine->FilterCandidates(w.reads, w.candidates, &expected);

  EngineFixture streamed(1, 100, 5);
  streamed.engine->LoadReference(w.genome);
  PipelineConfig cfg;
  cfg.batch_size = 256;
  cfg.verify = false;
  cfg.adaptive = true;
  cfg.adaptive_config.min_size = 64;
  cfg.adaptive_config.max_size = 512;
  std::vector<PairResult> results;
  const PipelineStats stats = RunCandidateStream(
      streamed.engine.get(), &streamed.pool, cfg, w, 200, &results);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].accept, expected[i].accept) << i;
    ASSERT_EQ(results[i].edits, expected[i].edits) << i;
  }
  EXPECT_LE(stats.batch_size_max, 512u);
}

TEST(CandidateStreamingTest, RejectsInvalidCandidates) {
  const std::string genome = GenerateGenome(20000, 3);
  EngineFixture fx(1, 100, 5);
  fx.engine->LoadReference(genome);
  PipelineConfig cfg;
  cfg.batch_size = 64;
  cfg.reference_text = genome;

  const auto run_one = [&](PairBatch prototype) {
    StreamingPipeline pipe(fx.engine.get(), &fx.pool, cfg);
    bool sent = false;
    const pipeline::BatchSource source = [&](PairBatch* batch) {
      if (sent) return false;
      sent = true;
      PairBatch copy = prototype;
      batch->cand_reads = std::move(copy.cand_reads);
      batch->candidates = std::move(copy.candidates);
      return true;
    };
    const pipeline::BatchSink sink = [](PairBatch&&) {};
    pipe.Run(source, sink);
  };

  const std::string read(100, 'A');
  {
    PairBatch b;  // reference window would run off the genome end
    b.cand_reads.push_back(read);
    b.candidates.push_back(
        {0, 0, 0, static_cast<std::int64_t>(genome.size()) - 50});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // negative offset
    b.cand_reads.push_back(read);
    b.candidates.push_back({0, 0, 0, -1});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // read_index outside the batch's read table
    b.cand_reads.push_back(read);
    b.candidates.push_back({7, 0, 0, 100});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
  {
    PairBatch b;  // wrong-length read in the table
    b.cand_reads.push_back(std::string(80, 'A'));
    b.candidates.push_back({0, 0, 0, 100});
    EXPECT_THROW(run_one(std::move(b)), std::runtime_error);
  }
}

TEST(CandidateStreamingTest, CandidateModeRequiresLoadedReference) {
  EngineFixture fx(1, 100, 5);
  const std::string genome = GenerateGenome(10000, 4);
  PipelineConfig cfg;
  cfg.reference_text = genome;  // engine never loaded it
  EXPECT_THROW(StreamingPipeline(fx.engine.get(), &fx.pool, cfg),
               std::invalid_argument);
}

TEST(CandidateStreamingTest, CandidateModeDetectsWrongGenomeOfSameLength) {
  // An engine reused across same-length genomes must fail loudly, not
  // silently filter candidates against the previously loaded reference.
  EngineFixture fx(1, 100, 5);
  const std::string genome_a = GenerateGenome(10000, 4);
  const std::string genome_b = GenerateGenome(10000, 8);
  ASSERT_EQ(genome_a.size(), genome_b.size());
  fx.engine->LoadReference(genome_a);
  PipelineConfig cfg;
  cfg.reference_text = genome_b;
  EXPECT_THROW(StreamingPipeline(fx.engine.get(), &fx.pool, cfg),
               std::invalid_argument);
  cfg.reference_text = genome_a;
  EXPECT_NO_THROW(StreamingPipeline(fx.engine.get(), &fx.pool, cfg));
}

// ---------------------------------------------------------- read-to-SAM --

/// Maps `reads` with the blocking mapper and with StreamFastqToSam, and
/// checks the streamed SAM against the blocking records line for line.
/// StreamFastqToSam seeds with the vote and MapReads without it, so
/// the streamed candidates plus the vote's cut are MapReads' candidates,
/// and the stream verifies no more pairs for the same mappings.
void ExpectStreamMatchesBlocking(const ReferenceSet& ref,
                                 const std::vector<std::string>& reads,
                                 std::size_t batch_size) {
  const int length = 100;
  const int e = 4;
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = length;
  mcfg.error_threshold = e;
  ReadMapper mapper(ref, mcfg);

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
  scfg.pipeline.batch_size = batch_size;
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
  EXPECT_EQ(got.mappings, expected.mappings);
  EXPECT_EQ(got.mapped_reads, expected.mapped_reads);
  EXPECT_EQ(got.pipeline.true_mappings, expected.mappings);
  EXPECT_LE(got.pipeline.verified_pairs, expected.verification_pairs);

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
    ExpectStreamMatchesBlocking(ref, reads, 512);
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
    ExpectStreamMatchesBlocking(ref, reads, 256);
  }
}

}  // namespace
}  // namespace gkgpu
