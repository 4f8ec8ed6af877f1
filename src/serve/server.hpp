// The mapping daemon: one resident index + engine serving concurrent
// mapping jobs over a Unix-domain socket (serve/protocol.hpp).
//
// Threading: an accept loop (poll on the listening socket plus a self-pipe
// so Shutdown() — and the SIGTERM handler behind it — can interrupt it)
// spawns one session thread per connection; sessions parse frames,
// reassemble FASTQ records, and push reads into one shared bounded queue.
// A single long-lived StreamingPipeline, filtering on the mapper's pool,
// drains that queue: its source seeds reads and packs batches *across
// sessions* — the cross-request coalescer.  The first read of a batch
// blocks until work arrives; subsequent reads wait at most `linger` for
// stragglers, so a lone client's batch departs promptly while concurrent
// clients share batches (counted in ServeStats::coalesced_batches when a
// batch carries reads from 2+ sessions).  ServeConfig::batch_size caps every batch; the
// daemon never turns on adaptive batch sizing itself.  The ordered sink
// demultiplexes: each read's verified mappings flow into its session's
// SamGroupBuffer (the same scoring + formatting path as a standalone run
// — byte-identical output) and are framed back to the owning client, in
// that client's submission order.
//
// Shutdown drains: no new connections, in-flight sessions run to
// completion (bounded by the per-request timeout), the pipeline retires
// every queued read, then Run() returns.
#ifndef GKGPU_SERVE_SERVER_HPP
#define GKGPU_SERVE_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "mapper/mapper.hpp"
#include "pipeline/pipeline.hpp"

namespace gkgpu::serve {

struct ServeConfig {
  std::string socket_path;
  /// Worker threads for the pipeline stages: split between the encode and
  /// verify pools.  The filter stage runs on the mapper's pool, which
  /// `gkgpu serve --threads` sizes to the same count; the daemon never
  /// consults hardware concurrency on its own.
  int threads = 2;
  /// Pipeline batch size: the most candidates one batch carries (a batch
  /// departs smaller when the linger window closes first).
  std::size_t batch_size = pipeline::kDefaultBatchCandidates;
  /// How long the batch packer waits for reads from other sessions once a
  /// batch has started filling, in milliseconds.  Larger = more
  /// cross-session coalescing, smaller = lower single-client latency.
  int linger_ms = 2;
  /// Per-request idle timeout in seconds: a client that stays silent this
  /// long *between frames* mid-job is dropped and its session discarded.
  /// <= 0 disables.
  int request_timeout_sec = 30;
  /// Hard deadline in seconds for finishing one frame once its first byte
  /// arrived: a slow-but-active client may pause mid-frame (straddling any
  /// number of receive-timeout ticks) as long as the whole frame lands
  /// inside this budget.  <= 0 derives 4x request_timeout_sec.
  int frame_deadline_sec = 0;
  /// Default MAPQ cap for jobs that do not set one.
  int mapq_cap = 60;
  /// Server-side @RG default ("" = none) when the job sets no read group.
  std::string read_group;
};

struct ServeStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_failed = 0;  // protocol error, timeout, disconnect
  std::uint64_t reads = 0;
  std::uint64_t skipped_reads = 0;  // wrong length for the engine
  std::uint64_t records = 0;        // SAM records sent
  std::uint64_t batches = 0;
  /// Batches carrying reads from 2+ sessions — the cross-request
  /// coalescing the daemon exists to provide.
  std::uint64_t coalesced_batches = 0;
};

class MapServer {
 public:
  /// `mapper` and `engine` must outlive the server; the engine's reference
  /// must already be loaded (Run checks).  `pipeline_config` seeds the
  /// long-lived pipeline (reference_text/fingerprint, verify, CIGAR, batch
  /// size and worker settings are overridden by the server).  Throws
  /// std::runtime_error if the shutdown self-pipe cannot be created.
  MapServer(const ReadMapper& mapper, GateKeeperGpuEngine* engine,
            ServeConfig config,
            pipeline::PipelineConfig pipeline_config = {});
  ~MapServer();

  MapServer(const MapServer&) = delete;
  MapServer& operator=(const MapServer&) = delete;

  /// Binds the socket and serves until Shutdown(); returns after the
  /// drain completes.  Throws std::runtime_error if the socket cannot be
  /// bound or the engine has no reference loaded.
  void Run();

  /// Async-signal-safe shutdown request (a write to the self-pipe);
  /// callable from a SIGTERM handler or any thread.
  void Shutdown() noexcept;

  /// True once Run() has bound the socket and is accepting connections.
  bool serving() const noexcept;

  /// Cumulative statistics (safe to call during and after Run).
  ServeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gkgpu::serve

#endif  // GKGPU_SERVE_SERVER_HPP
