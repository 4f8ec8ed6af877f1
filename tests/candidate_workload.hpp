// Candidate-batch workloads for the streaming-pipeline tests: a random
// genome with 'N' gap runs, simulated reads (every other one reverse-
// complemented) and their unvoted seeding candidates on both strands, plus
// the source that feeds them to a StreamingPipeline the way the mapper
// front ends do (one read-table entry per read run, global provenance).
#ifndef GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP
#define GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "encode/revcomp.hpp"
#include "mapper/mapper.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {

struct CandidateWorkload {
  std::string genome;
  std::vector<std::string> reads;
  std::vector<CandidatePair> candidates;  // global read_index / global pos
};

inline CandidateWorkload MakeCandidateWorkload(std::size_t n_reads,
                                               std::uint64_t seed) {
  CandidateWorkload w;
  GenomeProfile profile;
  profile.n_runs_per_mb = 100.0;  // a few 'N' gaps in 50 kbp
  w.genome = GenerateGenome(50000, seed, profile);
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = 100;
  mcfg.error_threshold = 5;
  ReadMapper mapper(w.genome, mcfg);
  const auto sim = SimulateReads(w.genome, n_reads, 100,
                                 ReadErrorProfile::Illumina(), seed + 1);
  for (std::size_t i = 0; i < sim.size(); ++i) {
    w.reads.push_back(i % 2 == 0 ? sim[i].seq : ReverseComplement(sim[i].seq));
  }
  // Unvoted, so the filter sees the full pigeonhole mix of accepts and
  // rejects.
  const std::vector<std::string_view> views(w.reads.begin(), w.reads.end());
  SeedChunk chunk;
  for (std::size_t c0 = 0; c0 < views.size(); c0 += kSeedChunkReads) {
    const std::size_t n = std::min(kSeedChunkReads, views.size() - c0);
    mapper.SeedReads(std::span(views).subspan(c0, n), &chunk, SeedVote::kOff);
    for (std::size_t j = 0; j < n; ++j) {
      for (const OrientedCandidate& oc : chunk.candidates(j)) {
        w.candidates.push_back(
            {static_cast<std::uint32_t>(c0 + j), oc.strand, 0, oc.pos});
      }
    }
  }
  return w;
}

/// Source step: fills `batch` with the next min(chunk, batch->target_size)
/// candidates of `w` from `*offset` on, building the batch's read table and
/// recording each candidate's global read index; false at end of stream.
inline bool FillCandidateBatch(const CandidateWorkload& w, std::size_t chunk,
                               std::size_t* offset,
                               pipeline::PairBatch* batch) {
  if (*offset >= w.candidates.size()) return false;
  const std::size_t count =
      std::min({chunk, batch->target_size, w.candidates.size() - *offset});
  std::uint32_t last_read = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < count; ++i) {
    const CandidatePair c = w.candidates[*offset + i];
    if (c.read_index != last_read) {
      batch->cand_reads.push_back(w.reads[c.read_index]);
      last_read = c.read_index;
    }
    batch->candidates.push_back(
        {static_cast<std::uint32_t>(batch->cand_reads.size() - 1), c.strand,
         0, c.ref_pos});
    batch->read_index.push_back(c.read_index);
  }
  *offset += count;
  return true;
}

/// Streams `w.candidates` through a pipeline over `engine` (whose loaded
/// reference must be w.genome), filtering on `pool`, in batches of at most
/// `chunk`, and returns per-candidate results — and, when `edits` is
/// non-null, verification edits — in input order.
inline pipeline::PipelineStats RunCandidateStream(
    GateKeeperGpuEngine* engine, ThreadPool* pool,
    pipeline::PipelineConfig cfg, const CandidateWorkload& w,
    std::size_t chunk, std::vector<PairResult>* results,
    std::vector<int>* edits = nullptr) {
  cfg.reference_text = w.genome;
  pipeline::StreamingPipeline pipe(engine, pool, cfg);
  results->assign(w.candidates.size(), PairResult{});
  if (edits != nullptr) edits->assign(w.candidates.size(), -1);
  std::size_t offset = 0;
  const pipeline::BatchSource source = [&](pipeline::PairBatch* batch) {
    return FillCandidateBatch(w, chunk, &offset, batch);
  };
  const pipeline::BatchSink sink = [&](pipeline::PairBatch&& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*results)[batch.first_pair + i] = batch.results[i];
      if (edits != nullptr) (*edits)[batch.first_pair + i] = batch.edits[i];
    }
  };
  return pipe.Run(source, sink);
}

}  // namespace gkgpu

#endif  // GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP
