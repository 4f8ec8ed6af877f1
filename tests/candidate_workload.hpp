// Candidate workloads for the filter-equivalence tests: a random genome
// with 'N' gap runs, simulated reads (every other one reverse-
// complemented) and their unvoted seeding candidates on both strands.
#ifndef GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP
#define GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/revcomp.hpp"
#include "filters/pair_block.hpp"
#include "mapper/mapper.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

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

}  // namespace gkgpu

#endif  // GKGPU_TESTS_CANDIDATE_WORKLOAD_HPP
