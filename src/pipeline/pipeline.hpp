// The streaming filtration pipeline: an asynchronous, bounded-queue,
// stage-parallel path from a candidate stream to ordered, verified results.
//
//   source ──q_in──▶ encode pool ──q_enc──▶ filter driver ──q_filt──▶
//        verify pool ──q_done──▶ ordered sink
//
// Stages:
//   1. source      — one thread pulling PairBatches from a caller-supplied
//                    generator (FASTQ seeder, paired-read pruner, the
//                    daemon's request queue);
//   2. encode      — a worker pool 2-bit-encoding each batch's read table
//                    into the batch (PairBatch::encoded_reads);
//   3. filtration  — one driver thread running GateKeeper over each batch
//                    as a candidates-shape PairBlock: GateKeeperCpu splits
//                    it into chunks of the engine's threads_per_block
//                    candidates, one FilterBatch call each, across the
//                    borrowed pool (the ReadMapper's);
//   4. verify      — a worker pool running banded alignment on the
//                    candidates the filter accepted (and the undefined
//                    ones it bypassed), exactly the work the filter saves;
//   5. sink        — restores input order by batch sequence number and
//                    hands each batch to the caller's consumer.
//
// Every batch carries distinct reads plus (read, reference-offset)
// candidates, filtered against the engine's loaded reference encoding and
// verified against windows of the host reference text (PipelineConfig::
// reference_text), with no per-candidate segment strings anywhere.
//
// Every queue is bounded, so a slow stage exerts backpressure instead of
// buffering the input set in memory.  A stage failure closes every queue,
// the remaining stages drain, and the first exception is rethrown from
// Run().  PipelineConfig::adaptive lets the source resize batches from
// queue occupancy (see adaptive.hpp).
#ifndef GKGPU_PIPELINE_PIPELINE_HPP
#define GKGPU_PIPELINE_PIPELINE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "filters/gatekeeper.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/queue.hpp"

namespace gkgpu::pipeline {

/// The default batch target, in candidates: two of the filter stage's
/// 1,024-candidate FilterBatch chunks.  Seeding with the vote leaves a read
/// about 1-4 candidates, so a larger target would keep a served 1,000-read
/// job's batch open until the daemon's linger window closes.
inline constexpr std::size_t kDefaultBatchCandidates = 2048;

struct PipelineConfig {
  /// Candidates per batch.
  std::size_t batch_size = kDefaultBatchCandidates;
  /// Bound of each inter-stage queue, in batches.
  std::size_t queue_depth = 4;
  int encode_workers = 2;
  int verify_workers = 2;
  /// Run the verification stage (banded alignment on accepts/bypasses).
  bool verify = true;
  /// Banded-alignment threshold; -1 uses the engine's error threshold.
  int verify_threshold = -1;
  /// Have the verification workers also produce each confirmed pair's
  /// CIGAR (PairBatch::cigars), so SAM sinks write lines without redoing
  /// the alignment on the single sink thread.
  bool emit_cigar = false;

  /// The reference text backing the engine's encoded reference
  /// (LoadReference must have been called with exactly this text; the
  /// storage behind the view must outlive the pipeline).  The filtration
  /// stage slices candidate windows from the engine's reference encoding
  /// and verification slices the same windows from this text.  Required: the
  /// constructor throws std::invalid_argument when it is empty.
  std::string_view reference_text;
  /// Precomputed FingerprintText(reference_text) (e.g. from
  /// ReferenceSet::fingerprint()); 0 = the constructor hashes the text
  /// itself.  Either way the value must match the engine's loaded
  /// reference or construction throws.
  std::uint64_t reference_fingerprint = 0;

  /// Occupancy-driven batch sizing: the source consults an AdaptiveBatcher
  /// (seeded from `adaptive_config`, initial = batch_size) before building
  /// each batch; config().batch_size then reports adaptive_config.max_size.
  bool adaptive = false;
  AdaptiveBatcherConfig adaptive_config;
};

/// Throughput/occupancy counters of one pipeline stage.
struct StageStats {
  std::string name;
  int workers = 0;
  std::uint64_t batches = 0;
  std::uint64_t items = 0;
  /// Work time summed across the stage's workers (excludes queue waits).
  double busy_seconds = 0.0;
};

/// Occupancy/stall report of one inter-stage queue.
struct QueueReport {
  std::string name;
  std::size_t capacity = 0;
  QueueStats stats;
};

struct PipelineStats {
  std::uint64_t pairs = 0;
  std::uint64_t batches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t verified_pairs = 0;  // pairs that entered verification
  std::uint64_t true_mappings = 0;   // verification confirmed <= threshold

  /// Measured wall clock of the whole Run() call.
  double wall_seconds = 0.0;
  double encode_seconds = 0.0;     // host encode busy time, all workers
  double verify_seconds = 0.0;     // verification busy time, all workers

  // Adaptive batch sizing (zeros when disabled).
  std::uint64_t grow_decisions = 0;
  std::uint64_t shrink_decisions = 0;
  std::size_t batch_size_min = 0;  // smallest batch size used
  std::size_t batch_size_max = 0;  // largest batch size used

  std::vector<StageStats> stages;
  std::vector<QueueReport> queues;
};

/// Pulls the next batch from the input stream.  Fill cand_reads and
/// candidates (plus provenance if the sink wants it) and return true, or
/// return false (leaving the batch empty) at end of stream.  Called from
/// the source thread only; `batch` arrives empty with `seq`/`first_pair`/
/// `target_size` preset.
using BatchSource = std::function<bool(PairBatch* batch)>;

/// Receives finished batches strictly in input order (ascending seq),
/// from the sink thread only.
using BatchSink = std::function<void(PairBatch&& batch)>;

class StreamingPipeline {
 public:
  /// Borrows the engine (its config and loaded reference) and `pool`, the
  /// filter stage's workers (null = the filter driver alone); both must
  /// outlive the pipeline.  Throws std::invalid_argument unless the
  /// engine's loaded reference is config.reference_text.
  StreamingPipeline(GateKeeperGpuEngine* engine, ThreadPool* pool,
                    PipelineConfig config);

  const PipelineConfig& config() const { return config_; }

  /// Streams the source to the sink; blocks until the stream is exhausted
  /// and every batch was delivered.  Rethrows the first stage exception
  /// after shutting the stages down.  Not re-entrant.
  PipelineStats Run(const BatchSource& source, const BatchSink& sink);

 private:
  GateKeeperGpuEngine* engine_;
  PipelineConfig config_;
  GateKeeperCpu gatekeeper_;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_PIPELINE_HPP
