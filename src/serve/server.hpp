// The mapping daemon: one resident index + filter serving concurrent
// mapping jobs over a Unix-domain socket (serve/protocol.hpp).
//
// Threading: an accept loop (poll on the listening socket plus a self-pipe
// so Shutdown() — and the SIGTERM handler behind it — can interrupt it)
// spawns one session thread per connection; sessions read frames, push
// each kData payload into a FastqParser (io/fastq.hpp, the parser `gkgpu
// map --reads` reads files with, so a served job parses the same records
// and fails on the same errors), and push reads into one shared bounded
// queue.
// One mapping thread drains that queue with chunk workers on the mapper's
// pool (pipeline/ordered_chunks.hpp), the same engine `gkgpu map --reads`
// runs: a worker takes up to kSeedChunkReads queued reads *across
// sessions* — the cross-request coalescer — and maps them end to end with
// ReadChunkMapper, each read formatted under its own session's job
// options (the same scoring + formatting path as a standalone run —
// byte-identical output).  An idle worker blocks until work arrives; with
// fewer reads queued than a chunk holds it waits at most `linger` for
// stragglers, so a lone client's chunk departs promptly while concurrent
// clients share chunks (counted in ServeStats::coalesced_batches when a
// chunk carries reads from 2+ sessions).  Chunks are emitted in the order
// they were taken, so each read's SAM bytes reach its session's client in
// that client's submission order.
//
// Shutdown drains: no new connections, in-flight sessions run to
// completion (bounded by the per-request timeout), the workers retire
// every queued read, then Run() returns.  A chunk worker's error (a
// corrupt index bucket, say) fails the run instead: every session with
// reads in flight, or waiting to admit one, gets kError naming it, the
// daemon stops accepting and drains, and Run() rethrows it.
#ifndef GKGPU_SERVE_SERVER_HPP
#define GKGPU_SERVE_SERVER_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "filters/filter.hpp"
#include "mapper/mapper.hpp"

namespace gkgpu::serve {

struct ServeConfig {
  std::string socket_path;
  /// Chunk workers mapping queued reads, at most the mapper's pool size
  /// + 1 (the pool's threads plus the daemon's mapping thread); `gkgpu
  /// serve --threads` sizes the pool to the same count, so the daemon never
  /// consults hardware concurrency on its own.
  int threads = 2;
  /// How long a worker holding fewer reads than a chunk waits for reads
  /// from other sessions, in milliseconds.  Larger = more cross-session
  /// coalescing, smaller = lower single-client latency.
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
  std::uint64_t skipped_reads = 0;  // not the mapper's read length
  std::uint64_t records = 0;        // SAM records sent
  std::uint64_t batches = 0;  // chunks mapped
  /// Chunks carrying reads from 2+ sessions — the cross-request
  /// coalescing the daemon exists to provide.
  std::uint64_t coalesced_batches = 0;
};

class MapServer {
 public:
  /// `mapper` and a non-null `filter` must outlive the server.  The filter
  /// runs at the mapper's error threshold, as in StreamFastqToSam; a null
  /// one is No Filter.  With a filter, a read length beyond the filter
  /// kernels' capacity makes Run throw std::invalid_argument before it
  /// binds the socket (ChunkFilter).  Throws std::runtime_error if the
  /// shutdown self-pipe cannot be created.
  MapServer(const ReadMapper& mapper, const PreAlignmentFilter* filter,
            ServeConfig config);
  /// bench/e2e only, until it moves to the filter signature: serves with
  /// pipeline::EngineShimFilter(engine != nullptr).
  MapServer(const ReadMapper& mapper, GateKeeperGpuEngine* engine,
            ServeConfig config);
  ~MapServer();

  MapServer(const MapServer&) = delete;
  MapServer& operator=(const MapServer&) = delete;

  /// Binds the socket and serves until Shutdown(); returns after the
  /// drain completes.  Throws std::runtime_error if the socket cannot be
  /// bound, and after the drain the error a chunk worker failed with.
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
