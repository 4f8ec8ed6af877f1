// Minimal blocking thread pool with a chunked parallel-for, used by the GPU
// execution simulator (one pool per simulated device), by the multicore
// CPU filter baselines, and as the ReadMapper's pool, on which MapReads
// verifies and every streaming driver runs its chunk workers
// (pipeline/ordered_chunks.hpp).
#ifndef GKGPU_UTIL_THREADPOOL_HPP
#define GKGPU_UTIL_THREADPOOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gkgpu {

class ThreadPool {
 public:
  /// Creates `nthreads` persistent workers (0 means hardware concurrency).
  /// Workers are named `<name_prefix><index>` (visible in `top -H`, gdb,
  /// and traces).
  explicit ThreadPool(unsigned nthreads = 0,
                      std::string name_prefix = "gkgpu-pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  /// at most `grain` items, on the pool plus the calling thread.  Blocks
  /// until every chunk finished.  fn must be thread-safe.
  ///
  /// Exceptions: the first one fn throws, on a worker or on the calling
  /// thread, stops the claiming of further chunks; once the chunks already
  /// running have finished it is rethrown on the calling thread, and the
  /// pool is ready for the next call.
  ///
  /// Edge behaviour: empty/inverted ranges are no-ops, `grain == 0` is
  /// treated as 1, and ranges whose chunk arithmetic could wrap SIZE_MAX
  /// run serially.  Re-entrant and concurrent calls are safe: while a job
  /// is in flight, any further ParallelFor (nested from inside fn, or from
  /// another thread sharing the pool) degrades to serial execution on the
  /// calling thread instead of corrupting the active job.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<int> active_workers{0};
    std::mutex error_mu;
    std::exception_ptr error;  // guarded by error_mu; the first throw
  };

  void WorkerLoop();
  static void RunChunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;          // guarded by mu_
  std::uint64_t job_seq_ = 0;   // guarded by mu_
  bool shutdown_ = false;       // guarded by mu_
};

}  // namespace gkgpu

#endif  // GKGPU_UTIL_THREADPOOL_HPP
