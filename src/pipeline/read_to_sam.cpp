#include "pipeline/read_to_sam.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <exception>
#include <ostream>
#include <span>

#include "io/fastq.hpp"
#include "mapper/sam.hpp"
#include "obs/names.hpp"
#include "pipeline/candidate_packer.hpp"
#include "pipeline/sam_group.hpp"

namespace gkgpu::pipeline {

ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                GateKeeperGpuEngine* engine,
                                const ReadToSamConfig& config,
                                std::ostream* sam) {
  ReadToSamStats out;
  if (!engine->HasReference()) engine->LoadReference(mapper.genome());

  PipelineConfig pcfg = config.pipeline;
  pcfg.reference_text = mapper.genome();
  pcfg.reference_fingerprint = mapper.reference().fingerprint();
  // The caller's verify flag is honored: with verification off the run is
  // stats-only and no mapping is confirmed (no SAM lines), by design.
  pcfg.verify_threshold = mapper.config().error_threshold;
  pcfg.emit_cigar = sam != nullptr;
  StreamingPipeline pipeline(engine, mapper.pool(), pcfg);

  const ReferenceSet& ref = mapper.reference();
  const int read_length = engine->config().read_length;

  FastqStreamReader reader(fastq);
  // The current chunk: records [0, chunk_size) of `recs` are seeded in
  // `chunk`, and `next` is the first one not yet handed to the packer.  A
  // handed-out record stays put until the next refill, which the packer
  // only triggers once that read is done (a read whose candidates split
  // across batches keeps its sequence in each batch's read table).
  std::vector<FastqRecord> recs(kSeedChunkReads);
  SeedChunk chunk;
  std::size_t chunk_size = 0;
  std::size_t next = 0;
  const FastqRecord* current = nullptr;
  // A malformed record is raised only once the reads before it are handed
  // out, so the output up to it does not depend on the chunk size.
  std::exception_ptr read_error;
  CandidateStream stream;
  std::uint32_t read_counter = 0;

  const auto refill = [&] {
    chunk_size = 0;
    next = 0;
    std::array<std::string_view, kSeedChunkReads> seqs;
    try {
      while (chunk_size < kSeedChunkReads && reader.Next(&recs[chunk_size])) {
        ++out.reads;
        if (static_cast<int>(recs[chunk_size].seq.size()) != read_length) {
          ++out.skipped_reads;
          continue;
        }
        seqs[chunk_size] = recs[chunk_size].seq;
        ++chunk_size;
      }
    } catch (...) {
      read_error = std::current_exception();
    }
    mapper.SeedReads(std::span(seqs).first(chunk_size), &chunk,
                     SeedVote::kOn);
  };

  const BatchSource source = [&](PairBatch* batch) {
    const std::size_t target = std::max<std::size_t>(
        1, std::min(batch->target_size, pipeline.config().batch_size));
    PackCandidateBatch(
        batch, target, &stream,
        [&](std::vector<OrientedCandidate>* positions) -> const std::string* {
          if (next == chunk_size) {
            if (read_error) std::rethrow_exception(read_error);
            refill();
            if (chunk_size == 0) {
              if (read_error) std::rethrow_exception(read_error);
              return nullptr;  // FASTQ exhausted
            }
          }
          const std::span<const OrientedCandidate> cands =
              chunk.candidates(next);
          positions->assign(cands.begin(), cands.end());
          out.candidates += positions->size();
          ++read_counter;
          current = &recs[next++];
          return &current->seq;
        },
        [&](const OrientedCandidate& oc, bool last) {
          const int chrom = ref.Locate(oc.pos);
          assert(chrom >= 0);  // seeding only emits in-chromosome windows
          batch->read_index.push_back(read_counter - 1);
          batch->read_names.push_back(current->name);
          batch->ref_chrom.push_back(chrom);
          batch->ref_pos.push_back(ref.ToLocal(chrom, oc.pos));
          batch->last_of_read.push_back(last ? 1 : 0);
        });
    return batch->size() > 0;
  };

  // The sink sees batches in input order, and within a batch pairs keep
  // the seeding order, so each read's mappings arrive contiguously (even
  // across a batch split).  The grouping, scoring, and formatting live in
  // SamGroupBuffer, shared with the daemon's per-session demultiplexer.
  SamGroupBuffer groups(
      SamGroupOptions{config.read_group, config.mapq_cap, config.secondary});
  std::uint32_t last_mapped = 0;
  bool any_mapped = false;
  const BatchSink sink = [&](PairBatch&& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.edits[i] >= 0) {
        ++out.mappings;
        if (!any_mapped || batch.read_index[i] != last_mapped) {
          ++out.mapped_reads;
          last_mapped = batch.read_index[i];
          any_mapped = true;
        }
        if (sam != nullptr) groups.AddMapping(batch, i);
      }
      if (sam != nullptr && batch.last_of_read[i] != 0) {
        groups.FlushGroup(*sam, ref);
      }
    }
  };

  out.pipeline = pipeline.Run(source, sink);
  assert(groups.empty());  // every read's last candidate flushes its group
  obs::ReadsMapped().Inc(out.mapped_reads);
  obs::ReadsUnmapped().Inc(out.reads - out.skipped_reads - out.mapped_reads);
  return out;
}

}  // namespace gkgpu::pipeline
