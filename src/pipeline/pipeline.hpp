// The streaming filtration pipeline: an asynchronous, bounded-queue,
// stage-parallel path from a pair stream to ordered, verified results.
//
//   source ──q_in──▶ encode pool ──slots──▶ device drivers ──q_filt──▶
//        verify pool ──q_done──▶ ordered sink
//
// Stages:
//   1. source      — one thread pulling fixed-size PairBatches from a
//                    caller-supplied generator (FASTQ chunker, pair file,
//                    synthetic stream);
//   2. encode      — a worker pool 2-bit-encoding each batch directly into
//                    a reserved per-device slot of the engine's unified
//                    memory (EncodingActor::kDevice stages raw bytes);
//   3. filtration  — one driver thread per simulated GPU running the
//                    GateKeeper kernel on encoded slots.  Batches shard
//                    round-robin across the device set; slots_per_device
//                    >= 2 double-buffers, so batch N+1 encodes/transfers
//                    while batch N's kernel runs;
//   4. verify      — a worker pool running banded alignment on the pairs
//                    the filter accepted (and the undefined pairs it
//                    bypassed), exactly the work the filter saves;
//   5. sink        — restores input order by batch sequence number and
//                    hands each batch to the caller's consumer.
//
// Every queue is bounded, so a slow stage exerts backpressure instead of
// buffering the input set in memory — the property the blocking
// FilterPairs path lacks.  A stage failure closes every queue, the
// remaining stages drain, and the first exception is rethrown from Run().
//
// Two batch shapes flow through the same stages (PipelineConfig::
// reference_text selects the mode): explicit (read, reference-segment)
// string pairs, or candidate batches — distinct reads plus (read,
// reference-offset) candidates filtered against the per-device encoded
// genome and verified against windows of the host reference text, with no
// per-candidate segment strings anywhere.  PipelineConfig::adaptive lets
// the source resize batches from queue occupancy (see adaptive.hpp).
#ifndef GKGPU_PIPELINE_PIPELINE_HPP
#define GKGPU_PIPELINE_PIPELINE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/queue.hpp"

namespace gkgpu::pipeline {

struct PipelineConfig {
  /// Pairs per batch (clamped to the engine's per-kernel plan).
  std::size_t batch_size = 8192;
  /// Bound of each inter-stage queue, in batches.
  std::size_t queue_depth = 4;
  int encode_workers = 2;
  int verify_workers = 2;
  /// Unified-memory buffer sets per device; 2 = double buffering.
  int slots_per_device = 2;
  /// Run the verification stage (banded alignment on accepts/bypasses).
  bool verify = true;
  /// Banded-alignment threshold; -1 uses the engine's error threshold.
  int verify_threshold = -1;
  /// Have the verification workers also produce each confirmed pair's
  /// CIGAR (PairBatch::cigars), so SAM sinks write lines without redoing
  /// the alignment on the single sink thread.
  bool emit_cigar = false;

  /// Candidate mode: the reference text backing the engine's encoded
  /// reference (LoadReference must have been called with exactly this
  /// text; the storage behind the view must outlive the pipeline).
  /// Batches then carry (read, reference-offset) candidates, the
  /// filtration stage slices windows from the per-device encoded genome,
  /// and verification slices the same windows from this text — no
  /// per-candidate segment strings anywhere.  Empty = pair mode.
  std::string_view reference_text;
  /// Precomputed FingerprintText(reference_text) (e.g. from
  /// ReferenceSet::fingerprint()); 0 = the constructor hashes the text
  /// itself.  Either way the value must match the engine's loaded
  /// reference or construction throws.
  std::uint64_t reference_fingerprint = 0;

  /// Occupancy-driven batch sizing: the source consults an AdaptiveBatcher
  /// (seeded from `adaptive_config`, initial = batch_size) before building
  /// each batch.  Slot buffers are provisioned at adaptive_config.max_size.
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
  /// Modeled filtration makespan on the overlapped timeline: host encoding
  /// runs concurrently with device kernels and transfers, devices run
  /// independently (no lockstep rounds).  Directly comparable with the
  /// blocking path's FilterRunStats::filter_seconds, which serializes
  /// host preprocessing with the device pipeline.
  double filter_seconds = 0.0;
  /// Simulated device time of the busiest device (devices run in
  /// parallel), and summed across devices.
  double kernel_seconds = 0.0;
  double kernel_seconds_total = 0.0;
  double transfer_seconds = 0.0;   // simulated PCIe, busiest device
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

/// Pulls the next batch from the input stream.  Fill reads/refs (plus
/// provenance if the sink wants it) and return true, or return false
/// (leaving the batch empty) at end of stream.  Called from the source
/// thread only; `batch` arrives empty with `seq`/`first_pair` preset.
using BatchSource = std::function<bool(PairBatch* batch)>;

/// Receives finished batches strictly in input order (ascending seq),
/// from the sink thread only.
using BatchSink = std::function<void(PairBatch&& batch)>;

class StreamingPipeline {
 public:
  /// The engine is borrowed and must outlive the pipeline.  Its devices
  /// define the filtration shard set.
  StreamingPipeline(GateKeeperGpuEngine* engine, PipelineConfig config);

  const PipelineConfig& config() const { return config_; }

  /// Streams the source to the sink; blocks until the stream is exhausted
  /// and every batch was delivered.  Rethrows the first stage exception
  /// after shutting the stages down.  Not re-entrant.
  PipelineStats Run(const BatchSource& source, const BatchSink& sink);

 private:
  GateKeeperGpuEngine* engine_;
  PipelineConfig config_;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_PIPELINE_HPP
