// The unit of work flowing through the streaming pipeline: the batch's
// distinct reads in `cand_reads` plus a (read_index, reference_offset)
// candidate table.  The filtration stage slices reference windows from the
// engine's loaded reference encoding, so no per-candidate segment string
// ever exists.  Plus provenance and, as the batch moves through the
// stages, the encoded read table, filtration results and verification
// edits.
#ifndef GKGPU_PIPELINE_BATCH_HPP
#define GKGPU_PIPELINE_BATCH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "encode/encoded.hpp"
#include "filters/pair_block.hpp"

namespace gkgpu::pipeline {

struct PairBatch {
  /// Input-order sequence number, assigned by the source stage; the
  /// ordered sink releases batches strictly by this.
  std::uint64_t seq = 0;
  /// Global index of pairs[0] over the whole stream.
  std::size_t first_pair = 0;
  /// Pair budget for this batch, preset by the pipeline before the source
  /// runs (the adaptive batcher moves it between its min and max bounds;
  /// fixed-size pipelines always preset the configured batch size).
  std::size_t target_size = 0;

  // Distinct read sequences of this batch, and candidates whose read_index
  // points into cand_reads and whose ref_pos is a global offset into the
  // engine's loaded reference.
  std::vector<std::string> cand_reads;
  std::vector<CandidatePair> candidates;

  // Read-to-SAM provenance (optional; the pipeline never reads it).  One
  // entry per candidate: which input read it came from, its name, the
  // chromosome the candidate window lies on, and the chromosome-local
  // position.  The candidate's strand bit lives inside CandidatePair and
  // needs no extra column.
  std::vector<std::uint32_t> read_index;
  std::vector<std::string> read_names;
  std::vector<std::int32_t> ref_chrom;
  std::vector<std::int64_t> ref_pos;
  // Multiplicity plumbing for MAPQ: 1 on a read's final candidate, so the
  // SAM sink knows when a read's verified-placement count is complete and
  // can score its records (mapper/mapq.hpp) without waiting for the next
  // read — a read's candidates may split across batches.
  std::vector<std::uint8_t> last_of_read;
  // Paired-end provenance: which mate of the pair the candidate belongs to
  // (0 = R1, 1 = R2); read_index then carries the *pair* index.  Empty on
  // single-end streams.
  std::vector<std::uint8_t> mate;

  /// Filled by the encode stage: cand_reads at the EncodedWords(L) stride,
  /// plus one bypass byte per read (has_n: the read holds a non-ACGT base).
  EncodedBatch encoded_reads;
  /// Filled by the filtration stage.
  std::vector<PairResult> results;
  /// Filled by the verification stage: exact banded edit distance for
  /// pairs that entered verification and passed (<= threshold), -1 for
  /// pairs the filter rejected or verification refuted.
  std::vector<int> edits;
  /// CIGAR strings of confirmed pairs (empty entries otherwise), filled by
  /// the verification workers when PipelineConfig::emit_cigar is set — the
  /// traceback runs in the parallel stage, not the single-threaded sink.
  std::vector<std::string> cigars;

  std::size_t size() const { return candidates.size(); }
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_BATCH_HPP
