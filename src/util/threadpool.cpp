#include "util/threadpool.hpp"

#include <algorithm>

#include "util/threadname.hpp"

namespace gkgpu {

ThreadPool::ThreadPool(unsigned nthreads, std::string name_prefix) {
  if (nthreads == 0) {
    nthreads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    workers_.emplace_back([this, name = name_prefix + std::to_string(i)] {
      util::SetCurrentThreadName(name);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunChunks(Job& job) {
  try {
    for (;;) {
      const std::size_t b = job.next.fetch_add(job.grain);
      if (b >= job.end) break;
      // Subtraction-based clamp: `b + grain` could wrap for ranges near
      // SIZE_MAX, which would hand fn an inverted chunk and stall the
      // claim counter.
      const std::size_t e = job.end - b > job.grain ? b + job.grain : job.end;
      (*job.fn)(b, e);
    }
  } catch (...) {
    // An exception must neither escape a worker thread (std::terminate)
    // nor unwind the caller while workers still run chunks of its
    // stack-allocated job.  Record it and stop every participant's claims;
    // ParallelFor rethrows it once the job has drained.
    std::lock_guard<std::mutex> lk(job.error_mu);
    if (!job.error) job.error = std::current_exception();
    job.next.store(job.end);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_job_.wait(lk, [&] {
        return shutdown_ || (job_ != nullptr && job_seq_ != seen);
      });
      if (shutdown_) return;
      job = job_;
      seen = job_seq_;
      job->active_workers.fetch_add(1);
    }
    RunChunks(*job);
    if (job->active_workers.fetch_sub(1) == 1) {
      // The notify must be ordered after the caller's waiter registration:
      // without the mutex, the decrement + notify can land between the
      // caller's predicate check (sees active_workers == 1) and its block
      // on cv_done_, and the wakeup is lost — ParallelFor then sleeps
      // forever on a finished job (observed on single-core hosts).
      // Acquiring mu_ forces this notify to happen either before the
      // caller evaluates the predicate (which then sees 0) or after it
      // blocked (and so receives the signal).
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  // Serial execution when there is nothing to share, or when the range sits
  // so close to SIZE_MAX that the atomic claim counter could wrap past
  // `end` and re-issue chunks forever.  The loop advances by subtraction-
  // clamped steps so it cannot overflow either.
  const auto run_serial = [&] {
    for (std::size_t b = begin; b < end;) {
      const std::size_t e = end - b > grain ? b + grain : end;
      fn(b, e);
      b = e;
    }
  };
  // Each participant's final claim overshoots `end` by one grain before it
  // notices, so with W workers plus the caller the claim counter can reach
  // end + (W+1)*grain.  Division keeps the headroom test itself overflow-
  // free.
  const std::size_t participants = workers_.size() + 1;
  const bool claim_could_wrap =
      grain > (static_cast<std::size_t>(-1) - end) / (participants + 1);
  if (workers_.empty() || end - begin <= grain || claim_could_wrap) {
    run_serial();
    return;
  }
  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  job.next.store(begin);
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (job_ != nullptr) {
      // The pool is already mid-job: either fn itself called ParallelFor
      // (nesting) or another thread shares this pool (a MapReads call
      // beside a running daemon may).  Corrupting the published job would
      // deadlock the other caller, so this call degrades to serial.
      lk.unlock();
      run_serial();
      return;
    }
    job_ = &job;
    ++job_seq_;
  }
  cv_job_.notify_all();
  RunChunks(job);  // the caller participates
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return job.active_workers.load() == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace gkgpu
