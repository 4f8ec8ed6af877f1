// Shared candidate-batch packing loop for the streaming front ends
// (StreamFastqToSam, the paired-end streaming path and the daemon).  All
// stream reads through seeding and pack the resulting oriented (read,
// strand, reference-offset) candidates into PairBatches; the subtle
// invariants live here once:
//
//   * a *sequence* enters the batch's read table at most once per batch:
//     candidates point into the table through their read index (the
//     PairBlock indirection), so duplicate reads — PCR duplicates, a
//     carried-over read re-entering a batch that already holds its
//     sequence, identical mates — share one table entry and are encoded
//     once;
//   * when a batch fills mid-read, the leftover candidates carry over to
//     the next call; the read's sequence reappears in the next batch's
//     table only if no other read already contributed the same bytes —
//     every batch stays self-contained;
//   * reads whose seeding produced no candidates are skipped without
//     touching the batch.
#ifndef GKGPU_PIPELINE_CANDIDATE_PACKER_HPP
#define GKGPU_PIPELINE_CANDIDATE_PACKER_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/batch.hpp"
#include "util/fingerprint.hpp"

namespace gkgpu {

/// One seeding hit: a candidate mapping location plus the strand it was
/// seeded on (0 = the read itself matches the forward reference window,
/// 1 = its reverse complement does).  Shared between the mapper's seeding
/// output and the pipeline's batch packing; the strand bit is carried into
/// CandidatePair and travels with it through filtration.
struct OrientedCandidate {
  std::int64_t pos = 0;
  std::uint8_t strand = 0;
};

}  // namespace gkgpu

namespace gkgpu::pipeline {

/// Carry-over state of a candidate stream between source calls: the
/// current read's remaining oriented candidates and its sequence (owned
/// by the caller; the pointer must stay valid until the next fetch — a
/// reused buffer is fine).
struct CandidateStream {
  std::vector<OrientedCandidate> positions;
  std::size_t offset = 0;
  const std::string* read = nullptr;  // null = fetch the next read
};

/// Packs up to `target` candidates into `batch`.  `fetch` advances the
/// stream: fill `positions` with the next read's oriented candidate
/// locations and return a pointer to its (forward) sequence, or null at
/// end of stream.  `emit(oc, last_of_read)` runs after each candidate is
/// appended, to add per-pair provenance columns; `last_of_read` is true on
/// the read's final candidate (known up front — seeding fills the whole
/// position list before packing), so sinks can close a read's group the
/// moment its multiplicity is complete, even when the read's candidates
/// split across batches.
template <typename Fetch, typename Emit>
void PackCandidateBatch(PairBatch* batch, std::size_t target,
                        CandidateStream* stream, Fetch&& fetch, Emit&& emit) {
  // Content index of this batch's read table: sequence fingerprint ->
  // table indices (collisions verified by comparison).  Built per call —
  // a batch arrives empty — so a sequence the batch already carries is
  // reused instead of repeated, whatever read it came from.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table_index;
  // The current read's table slot.  Deliberately resolved by content, not
  // pointer identity: fetchers may reuse one sequence buffer for
  // consecutive reads.
  std::uint32_t current_slot = 0;
  bool current_resolved = false;
  while (batch->candidates.size() < target) {
    if (stream->read == nullptr) {
      stream->positions.clear();
      stream->offset = 0;
      stream->read = fetch(&stream->positions);
      current_resolved = false;
      if (stream->read == nullptr) break;
    }
    while (stream->offset < stream->positions.size() &&
           batch->candidates.size() < target) {
      if (!current_resolved) {
        const std::string& seq = *stream->read;
        std::vector<std::uint32_t>& bucket =
            table_index[FingerprintText(seq)];
        bool found = false;
        for (const std::uint32_t idx : bucket) {
          if (batch->cand_reads[idx] == seq) {
            current_slot = idx;
            found = true;
            break;
          }
        }
        if (!found) {
          batch->cand_reads.push_back(seq);
          current_slot =
              static_cast<std::uint32_t>(batch->cand_reads.size() - 1);
          bucket.push_back(current_slot);
        }
        current_resolved = true;
      }
      const OrientedCandidate oc = stream->positions[stream->offset++];
      batch->candidates.push_back({current_slot, oc.strand, 0, oc.pos});
      emit(oc, stream->offset == stream->positions.size());
    }
    if (stream->offset >= stream->positions.size()) stream->read = nullptr;
  }
}

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_CANDIDATE_PACKER_HPP
