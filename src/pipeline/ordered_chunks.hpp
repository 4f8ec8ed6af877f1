// The one engine of the streaming mapping drivers (StreamFastqToSam, paired
// mapping and the daemon), in minimap2's shape (Li 2018): symmetric
// workers that each map a chunk end to end, and an in-order writer.
//
//   worker w:  take the next chunk (under the input lock) -> map it with
//              the worker's own scratch -> deposit it; whichever worker
//              finds the next sequence number deposited emits chunks in
//              order until a gap, one emitter at a time.
//
// The workers are one ThreadPool::ParallelFor over the ReadMapper's pool,
// so a driver starts no thread of its own.  A reorder window of
// kWindowPerWorker chunks per worker bounds memory: chunk s is taken only
// once chunk s - window has been emitted, so every slot is reused in place.
//
// Errors: the first exception of any step is recorded against its chunk.
// Workers then stop taking, every chunk numbered before it is still
// emitted, and RunOrderedChunks rethrows it.  A driver whose input fails
// mid-chunk hands out the records before the failure as a chunk of their
// own and throws on the next take, so the output up to a malformed record
// depends on neither the chunk size nor the worker count.
#ifndef GKGPU_PIPELINE_ORDERED_CHUNKS_HPP
#define GKGPU_PIPELINE_ORDERED_CHUNKS_HPP

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gkgpu::pipeline {

/// Chunks in flight per worker.
inline constexpr std::size_t kWindowPerWorker = 4;

/// The worker count of a driver on `pool`: every pool thread plus the
/// calling thread, which participates in the ParallelFor.
inline std::size_t ChunkWorkers(const ThreadPool& pool) {
  return pool.size() + 1;
}

/// The stage-latency series (gkgpu_stage_service_seconds{stage}) a chunk's
/// map step observes, once per chunk each: "source" (the take plus
/// seeding), "encode", "filter" and "verify" (verification, CIGARs and SAM
/// bytes).  The runner observes "sink", the in-order emit.
struct StageHistograms {
  obs::Histogram source = obs::StageService("source");
  obs::Histogram encode = obs::StageService("encode");
  obs::Histogram filter = obs::StageService("filter");
  obs::Histogram verify = obs::StageService("verify");
};

/// Times one stage of one chunk: a trace span, and at scope exit one
/// observation of `histogram` (plus `carried` seconds the stage spent
/// earlier, such as the take before seeding).
class StageTimer {
 public:
  StageTimer(obs::Histogram histogram, const char* stage,
             double carried = 0.0) noexcept
      : histogram_(histogram), span_(stage, "pipeline"), carried_(carried) {}
  ~StageTimer() {
    span_.Close();
    histogram_.Observe(carried_ + timer_.Seconds());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  obs::Histogram histogram_;
  obs::Span span_;
  double carried_;
  WallTimer timer_;
};

/// Runs `workers` worker loops over `pool` until the input is exhausted:
///   take(Chunk&) -> bool   fills the next chunk, under the input lock;
///                          false at end of input;
///   map(Chunk&, worker)    maps a chunk, concurrently; `worker` in
///                          [0, workers) indexes the caller's scratch;
///   emit(Chunk&)           consumes chunks in take order, one at a time.
/// Slots are default-constructed once and reused, so `take` must reset
/// whatever it fills.  Rethrows the first exception (see above).
template <typename Chunk, typename Take, typename Map, typename Emit>
void RunOrderedChunks(ThreadPool& pool, std::size_t workers, Take&& take,
                      Map&& map, Emit&& emit) {
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  workers = workers == 0 ? 1 : workers;
  const std::size_t window = kWindowPerWorker * workers;
  std::vector<Chunk> slots(window);

  std::mutex in_mu;
  std::uint64_t next_take = 0;  // guarded by in_mu
  bool input_done = false;      // guarded by in_mu

  std::mutex out_mu;
  // Signalled when a slot frees up or a step fails.
  std::condition_variable window_cv;
  std::vector<std::uint8_t> ready(window, 0);  // guarded by out_mu
  std::uint64_t next_emit = 0;                 // guarded by out_mu
  bool emitting = false;                       // guarded by out_mu
  std::uint64_t error_seq = kNone;             // guarded by out_mu
  std::exception_ptr error;                    // guarded by out_mu

  const obs::Histogram sink = obs::StageService("sink");
  // Keeps the earliest failing chunk's error: every chunk before it still
  // goes out, so its error is the one the output stops at.
  const auto fail = [&](std::uint64_t seq) {
    std::lock_guard<std::mutex> lk(out_mu);
    if (seq < error_seq) {
      error_seq = seq;
      error = std::current_exception();
    }
    window_cv.notify_all();
  };

  const auto worker_loop = [&](std::size_t w) {
    for (;;) {
      std::uint64_t seq = 0;
      {
        std::lock_guard<std::mutex> in(in_mu);
        if (input_done) return;
        seq = next_take;
        {
          std::unique_lock<std::mutex> out(out_mu);
          window_cv.wait(out, [&] {
            return seq < next_emit + window || error != nullptr;
          });
          if (error != nullptr) {
            input_done = true;
            return;
          }
        }
        try {
          if (!take(slots[seq % window])) {
            input_done = true;
            return;
          }
        } catch (...) {
          input_done = true;
          fail(seq);
          return;
        }
        ++next_take;
      }
      try {
        map(slots[seq % window], w);
      } catch (...) {
        fail(seq);
        return;
      }
      std::unique_lock<std::mutex> out(out_mu);
      ready[seq % window] = 1;
      if (emitting) continue;  // the current emitter will reach this chunk
      emitting = true;
      while (next_emit < error_seq && ready[next_emit % window] != 0) {
        const std::uint64_t s = next_emit;
        out.unlock();
        bool emitted = true;
        try {
          const StageTimer timer(sink, "sink");
          emit(slots[s % window]);
        } catch (...) {
          fail(s);
          emitted = false;
        }
        out.lock();
        if (!emitted) break;
        ready[s % window] = 0;
        ++next_emit;
        window_cv.notify_all();
      }
      emitting = false;
    }
  };
  pool.ParallelFor(0, workers, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t w = b; w < e; ++w) worker_loop(w);
  });
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_ORDERED_CHUNKS_HPP
