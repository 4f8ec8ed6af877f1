#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "io/fastq.hpp"
#include "mapper/sam.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "pipeline/chunk_filter.hpp"
#include "pipeline/ordered_chunks.hpp"
#include "pipeline/read_to_sam.hpp"
#include "serve/protocol.hpp"
#include "util/threadname.hpp"

namespace gkgpu::serve {

namespace {

/// Reads the daemon's counters out of one consistent registry snapshot.
/// MapServer::stats() subtracts the baseline captured at construction, so
/// several servers in one process (the test suite) each report their own
/// deltas even though the registry is process-cumulative.
ServeStats ReadRegistryServeStats() {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const auto sessions = [&](const char* state) {
    return static_cast<std::uint64_t>(
        snap.Value("gkgpu_serve_sessions_total", {{"state", state}}));
  };
  ServeStats s;
  s.sessions_accepted = sessions("accepted");
  s.sessions_completed = sessions("completed");
  s.sessions_failed = sessions("failed");
  s.reads = static_cast<std::uint64_t>(snap.Value("gkgpu_serve_reads_total"));
  s.skipped_reads = static_cast<std::uint64_t>(
      snap.Value("gkgpu_serve_skipped_reads_total"));
  s.records =
      static_cast<std::uint64_t>(snap.Value("gkgpu_serve_records_total"));
  s.batches =
      static_cast<std::uint64_t>(snap.Value("gkgpu_serve_batches_total"));
  s.coalesced_batches = static_cast<std::uint64_t>(
      snap.Value("gkgpu_serve_coalesced_batches_total"));
  return s;
}

/// SAM bytes staged per session before a kSamRecords frame departs.
constexpr std::size_t kSendThreshold = 64u << 10;
/// Reads the shared queue holds before sessions block on admission.
constexpr std::size_t kQueueCapacity = 8192;

struct Session {
  explicit Session(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {}
  ~Session() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  const std::uint64_t id;
  const std::chrono::steady_clock::time_point accepted_at =
      std::chrono::steady_clock::now();

  std::mutex write_mu;  // serializes frame writes on fd
  std::atomic<bool> dead{false};
  std::atomic<bool> input_done{false};
  std::atomic<bool> done_sent{false};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> retired{0};

  /// The job's SAM options; set by the session thread before it admits
  /// its first read (the queue's mutex publishes it to the workers).
  SamGroupOptions options;

  // Output side (the emitting worker + whichever thread completes the
  // session).
  std::mutex out_mu;
  std::string staged;
  std::uint64_t records = 0;  // SAM records staged (under out_mu)
};

using SessionPtr = std::shared_ptr<Session>;

/// A read admitted to the shared cross-session queue.
struct QueuedRead {
  SessionPtr session;
  std::string name;
  std::string seq;
};

/// One chunk of queued reads, possibly from several sessions.
struct ServedChunk {
  std::vector<QueuedRead> reads;
  pipeline::ReadChunkInput in;
  pipeline::ReadChunkOutput out;
};

}  // namespace

struct MapServer::Impl {
  Impl(const ReadMapper& mapper, const PreAlignmentFilter* filter,
       ServeConfig config)
      : mapper_(mapper),
        filter_(filter),
        config_(std::move(config)),
        baseline_(ReadRegistryServeStats()) {
    // The self-pipe lives as long as the server, so Shutdown() — from any
    // thread or a signal handler — never races its creation or its close.
    if (::pipe(stop_pipe_) != 0) {
      throw std::runtime_error("serve: cannot create the stop pipe");
    }
  }

  ~Impl() {
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
  }

  // --- configuration ----------------------------------------------------
  const ReadMapper& mapper_;
  const PreAlignmentFilter* filter_;
  ServeConfig config_;

  // --- lifecycle --------------------------------------------------------
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> serving_{false};
  std::mutex threads_mu_;
  std::vector<std::thread> session_threads_;
  /// Every session accepted and not yet ended, plus those ended since the
  /// last accept (guarded by threads_mu_): a failed mapping run fails its
  /// sessions through this list, since the chunks it had taken die with
  /// it.
  std::vector<SessionPtr> sessions_;

  // --- the shared read queue (the cross-request coalescer's input) ------
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;        // consumer: work available
  std::condition_variable queue_space_cv_;  // producers: room available
  std::deque<QueuedRead> queue_;
  bool input_closed_ = false;  // drained, or the mapping run failed
  std::exception_ptr map_error_;  // the mapping run died of it

  // --- statistics -------------------------------------------------------
  // All counting goes through the metrics registry (obs/names.hpp);
  // stats() reads one consistent snapshot and subtracts this baseline.
  // The session id allocator is the only remaining local counter.
  std::atomic<std::uint64_t> session_seq_{0};
  const ServeStats baseline_;

  // Sends one frame under the session's write lock; a failed send (stalled
  // or vanished client, SO_SNDTIMEO) marks the session dead.
  void TrySend(const SessionPtr& s, FrameType type, std::string_view payload) {
    if (s->dead.load(std::memory_order_acquire)) return;
    try {
      std::lock_guard<std::mutex> lock(s->write_mu);
      WriteFrame(s->fd, type, payload);
    } catch (const std::exception&) {
      s->dead.store(true, std::memory_order_release);
    }
  }

  /// Records the session's terminal state exactly once (whichever of
  /// FailSession / MaybeComplete / the stats fast path wins done_sent).
  void CloseoutSession(const SessionPtr& s, const char* state) {
    obs::ServeSessions(state).Inc();
    obs::ServeSessionsActive().Add(-1);
    obs::ServeSessionSeconds().Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      s->accepted_at)
            .count());
  }

  /// Sends kError (once, whichever failure comes first) and ends the
  /// session.
  void FailSession(const SessionPtr& s, const std::string& why) {
    if (!s->done_sent.exchange(true)) {
      TrySend(s, FrameType::kError, why);
      CloseoutSession(s, "failed");
    }
    s->dead.store(true, std::memory_order_release);
    s->input_done.store(true, std::memory_order_release);
    ::shutdown(s->fd, SHUT_RDWR);
  }

  /// Completes the session once every admitted read has retired: flushes
  /// staged SAM bytes, sends kStats + kDone.  Callable from the session
  /// thread or the emitting worker — whoever retires the last read wins
  /// the done_sent exchange.
  void MaybeComplete(const SessionPtr& s) {
    if (!s->input_done.load(std::memory_order_acquire)) return;
    // The input is done, so enqueued is final: the job's read count.
    const std::uint64_t reads = s->enqueued.load(std::memory_order_acquire);
    if (s->retired.load(std::memory_order_acquire) != reads) return;
    if (s->done_sent.exchange(true)) return;
    if (s->dead.load(std::memory_order_acquire)) {
      // Died on an earlier send (client vanished mid-stream): terminal
      // state is a disconnect, not a completion.
      CloseoutSession(s, "failed");
      return;
    }
    std::string tail;
    std::uint64_t records = 0;
    {
      std::lock_guard<std::mutex> lock(s->out_mu);
      tail.swap(s->staged);
      records = s->records;
    }
    if (!tail.empty()) TrySend(s, FrameType::kSamRecords, tail);
    TrySend(s, FrameType::kStats,
            "reads=" + std::to_string(reads) +
                "\nrecords=" + std::to_string(records) + "\n");
    TrySend(s, FrameType::kDone, {});
    CloseoutSession(
        s, s->dead.load(std::memory_order_acquire) ? "failed" : "completed");
  }

  void RetireRead(const SessionPtr& s) {
    s->retired.fetch_add(1, std::memory_order_acq_rel);
    MaybeComplete(s);
  }

  // --- session thread ---------------------------------------------------

  FrameReadLimits SessionReadLimits() const {
    FrameReadLimits limits;
    limits.idle_timeout_sec = config_.request_timeout_sec;
    limits.frame_deadline_sec =
        config_.frame_deadline_sec > 0
            ? config_.frame_deadline_sec
            : 4.0 * config_.request_timeout_sec;
    return limits;
  }

  void SessionMain(SessionPtr s) {
    util::SetCurrentThreadName("gkgpu-sess" + std::to_string(s->id));
    const FrameReadLimits limits = SessionReadLimits();
    try {
      Frame frame;
      if (!ReadFrame(s->fd, &frame, limits)) {
        throw std::runtime_error("expected a kJob frame first");
      }
      if (frame.type == FrameType::kStatsRequest) {
        // Metrics scrape: no job, no mapping involvement — answer from
        // the registry and finish the session.
        obs::Span span("stats-scrape", "serve");
        TrySend(s, FrameType::kStats,
                obs::Registry::Global().Snapshot().RenderPrometheus());
        TrySend(s, FrameType::kDone, {});
        s->input_done.store(true, std::memory_order_release);
        if (!s->done_sent.exchange(true)) {
          CloseoutSession(s, s->dead.load(std::memory_order_acquire)
                                 ? "failed"
                                 : "completed");
        }
        return;
      }
      if (frame.type != FrameType::kJob) {
        throw std::runtime_error("expected a kJob frame first");
      }
      const JobSpec job = ParseJobSpec(frame.payload);
      const std::string read_group =
          job.read_group.empty() ? config_.read_group : job.read_group;
      const int mapq_cap =
          job.mapq_cap >= 0 ? job.mapq_cap : config_.mapq_cap;
      const SecondaryPolicy policy = job.report_secondary
                                         ? SecondaryPolicy::kReportSecondary
                                         : SecondaryPolicy::kBestOnly;
      s->options = SamGroupOptions{read_group, mapq_cap, policy};
      std::ostringstream header;
      WriteSamHeader(header, mapper_.reference(), read_group);
      TrySend(s, FrameType::kSamHeader, std::move(header).str());

      const int read_length = mapper_.config().read_length;
      FastqParser fastq;
      FastqRecord rec;
      bool ended = false;
      while (!ended) {
        if (!ReadFrame(s->fd, &frame, limits)) {
          throw std::runtime_error("client disconnected before kEnd");
        }
        switch (frame.type) {
          case FrameType::kData:
            fastq.Append(frame.payload);
            break;
          case FrameType::kEnd:
            fastq.Finish();
            ended = true;
            break;
          default:
            throw std::runtime_error("unexpected frame type mid-job");
        }
        while (fastq.Next(&rec)) {
          if (static_cast<int>(rec.seq.size()) != read_length) {
            obs::ServeSkippedReads().Inc();
            continue;
          }
          AdmitRead(s, std::move(rec));
        }
      }
      s->input_done.store(true, std::memory_order_release);
      MaybeComplete(s);
    } catch (const std::exception& e) {
      FailSession(s, e.what());
    }
  }

  void AdmitRead(const SessionPtr& s, FastqRecord rec) {
    // enqueued counts before the push so retired can never catch an
    // undercounted total.
    s->enqueued.fetch_add(1, std::memory_order_acq_rel);
    obs::ServeReads().Inc();
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_space_cv_.wait(lock, [&] {
      return queue_.size() < kQueueCapacity || map_error_ != nullptr;
    });
    if (map_error_ != nullptr) std::rethrow_exception(map_error_);
    queue_.push_back({s, std::move(rec.name), std::move(rec.seq)});
    lock.unlock();
    queue_cv_.notify_one();
  }

  // --- the mapping thread: chunk workers on the mapper's pool ----------

  /// Takes up to one chunk of queued reads: idles until work arrives, then
  /// waits at most `linger` for a full chunk.  False once the queue is
  /// closed and drained.  The waits are idle time, so the chunk's
  /// take_seconds (its "source" service) starts once its reads are taken.
  bool TakeChunk(ServedChunk& chunk) {
    const std::chrono::milliseconds linger(std::max(0, config_.linger_ms));
    chunk.reads.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return !queue_.empty() || input_closed_; });
      const auto full = [&] {
        return queue_.size() >= kSeedChunkReads || input_closed_;
      };
      queue_cv_.wait_for(lock, linger, full);
      if (queue_.empty()) return false;  // closed and drained
      while (!queue_.empty() && chunk.reads.size() < kSeedChunkReads) {
        chunk.reads.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    const WallTimer timer;
    queue_space_cv_.notify_all();
    obs::ServeBatches().Inc();
    for (const QueuedRead& r : chunk.reads) {
      if (r.session != chunk.reads.front().session) {
        obs::ServeCoalescedBatches().Inc();
        break;
      }
    }
    pipeline::ReadChunkInput& in = chunk.in;
    in.size = chunk.reads.size();
    for (std::size_t i = 0; i < in.size; ++i) {
      in.names[i] = chunk.reads[i].name;
      in.seqs[i] = chunk.reads[i].seq;
      in.options[i] = &chunk.reads[i].session->options;
    }
    in.take_seconds = timer.Seconds();
    return true;
  }

  /// Hands each read's SAM bytes to its session, in chunk order, and
  /// retires the read.
  void EmitChunk(ServedChunk& chunk) {
    const std::string_view sam = chunk.out.sam;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < chunk.reads.size(); ++i) {
      const SessionPtr& s = chunk.reads[i].session;
      const std::size_t end = chunk.out.sam_end[i];
      std::string ready;
      if (!s->dead.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(s->out_mu);
        s->staged.append(sam.substr(begin, end - begin));
        s->records += chunk.out.records[i];
        obs::ServeRecords().Inc(chunk.out.records[i]);
        if (s->staged.size() >= kSendThreshold) ready.swap(s->staged);
      }
      begin = end;
      if (!ready.empty()) TrySend(s, FrameType::kSamRecords, ready);
      RetireRead(s);
    }
    chunk.reads.clear();  // let finished sessions go
  }

  void MapLoop(const pipeline::ChunkFilter& filter) {
    const pipeline::StageHistograms stages;
    ThreadPool& pool = *mapper_.pool();
    const std::size_t workers =
        std::min(static_cast<std::size_t>(std::max(1, config_.threads)),
                 pipeline::ChunkWorkers(pool));
    std::vector<pipeline::ReadChunkMapper> chunk_mappers(
        workers, pipeline::ReadChunkMapper(mapper_, filter, stages));
    const auto take = [&](ServedChunk& chunk) { return TakeChunk(chunk); };
    const auto map = [&](ServedChunk& chunk, std::size_t worker) {
      try {
        chunk_mappers[worker].Map(chunk.in, &chunk.out);
      } catch (...) {
        // Idle workers wait in TakeChunk; the run ends only once they
        // stop taking.
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          input_closed_ = true;
        }
        queue_cv_.notify_all();
        throw;
      }
    };
    const auto emit = [&](ServedChunk& chunk) { EmitChunk(chunk); };
    pipeline::RunOrderedChunks<ServedChunk>(pool, workers, take, map, emit);
  }

  /// The mapping run died of `error`: sessions waiting on admission fail
  /// with it, so do those with reads admitted but never retired, and the
  /// accept loop stops; Run() rethrows it after the drain.
  void FailRun(std::exception_ptr error, const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      map_error_ = error;
      queue_.clear();
    }
    queue_space_cv_.notify_all();
    std::vector<SessionPtr> live;
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      live = sessions_;
    }
    for (const SessionPtr& s : live) {
      if (s->retired.load(std::memory_order_acquire) <
          s->enqueued.load(std::memory_order_acquire)) {
        FailSession(s, why);
      }
    }
    Shutdown();
  }

  /// This server's counters: the registry's minus the baseline.
  ServeStats Stats() const {
    const ServeStats now = ReadRegistryServeStats();
    ServeStats s;
    s.sessions_accepted = now.sessions_accepted - baseline_.sessions_accepted;
    s.sessions_completed =
        now.sessions_completed - baseline_.sessions_completed;
    s.sessions_failed = now.sessions_failed - baseline_.sessions_failed;
    s.reads = now.reads - baseline_.reads;
    s.skipped_reads = now.skipped_reads - baseline_.skipped_reads;
    s.records = now.records - baseline_.records;
    s.batches = now.batches - baseline_.batches;
    s.coalesced_batches = now.coalesced_batches - baseline_.coalesced_batches;
    return s;
  }

  // --- accept loop ------------------------------------------------------

  void Run() {
    const pipeline::ChunkFilter filter(filter_, mapper_);
    if (config_.socket_path.empty() ||
        config_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("serve: invalid socket path");
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("serve: cannot create the listening socket");
    }
    ::unlink(config_.socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: cannot bind " + config_.socket_path +
                               ": " + err);
    }

    std::thread map_thread([this, &filter] {
      util::SetCurrentThreadName("gkgpu-servemap");
      try {
        MapLoop(filter);
      } catch (const std::exception& e) {
        FailRun(std::current_exception(), e.what());
      }
    });
    util::SetCurrentThreadName("gkgpu-accept");
    serving_.store(true, std::memory_order_release);

    while (!stopping_.load(std::memory_order_acquire)) {
      pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
      const int n = ::poll(fds, 2, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if ((fds[1].revents & POLLIN) != 0) break;  // shutdown requested
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      if (config_.request_timeout_sec > 0) {
        // The receive timeout is a short polling *tick*, not the deadline:
        // ReadFrame resumes across ticks and enforces the idle/frame
        // deadlines itself, so an expiry mid-frame no longer kills a
        // slow-but-active client.  Sends keep the full timeout as a hard
        // stall cap.
        timeval tick{};
        tick.tv_usec = 500 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick));
        timeval tv{};
        tv.tv_sec = config_.request_timeout_sec;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      }
      auto session = std::make_shared<Session>(fd, ++session_seq_);
      obs::ServeSessions("accepted").Inc();
      obs::ServeSessionsActive().Add(1);
      std::lock_guard<std::mutex> lock(threads_mu_);
      std::erase_if(sessions_, [](const SessionPtr& s) {
        return s->done_sent.load(std::memory_order_acquire);
      });
      sessions_.push_back(session);
      session_threads_.emplace_back(
          [this, session = std::move(session)]() mutable {
            SessionMain(std::move(session));
          });
    }
    serving_.store(false, std::memory_order_release);

    // Drain: stop accepting, let in-flight sessions finish feeding the
    // queue (bounded by the per-request timeout), then close the queue so
    // the workers retire what remains and exit.
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      for (std::thread& t : session_threads_) t.join();
      session_threads_.clear();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      input_closed_ = true;
    }
    queue_cv_.notify_all();
    map_thread.join();

    // One structured line on drain so an operator's log shows what the
    // daemon did before it honored SIGTERM.
    const ServeStats now = Stats();
    std::fprintf(
        stderr,
        "gkgpu-serve: drained sessions_accepted=%llu sessions_completed=%llu "
        "sessions_failed=%llu reads=%llu skipped_reads=%llu records=%llu "
        "batches=%llu coalesced_batches=%llu\n",
        static_cast<unsigned long long>(now.sessions_accepted),
        static_cast<unsigned long long>(now.sessions_completed),
        static_cast<unsigned long long>(now.sessions_failed),
        static_cast<unsigned long long>(now.reads),
        static_cast<unsigned long long>(now.skipped_reads),
        static_cast<unsigned long long>(now.records),
        static_cast<unsigned long long>(now.batches),
        static_cast<unsigned long long>(now.coalesced_batches));
    if (map_error_ != nullptr) std::rethrow_exception(map_error_);
  }

  void Shutdown() noexcept {
    stopping_.store(true, std::memory_order_release);
    const char byte = 1;
    // Async-signal-safe: a single write to the self-pipe.
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
};

MapServer::MapServer(const ReadMapper& mapper, const PreAlignmentFilter* filter,
                     ServeConfig config)
    : impl_(std::make_unique<Impl>(mapper, filter, std::move(config))) {}

MapServer::MapServer(const ReadMapper& mapper, GateKeeperGpuEngine* engine,
                     ServeConfig config)
    : MapServer(mapper, pipeline::EngineShimFilter(engine != nullptr),
                std::move(config)) {}

MapServer::~MapServer() = default;

void MapServer::Run() { impl_->Run(); }

void MapServer::Shutdown() noexcept { impl_->Shutdown(); }

bool MapServer::serving() const noexcept {
  return impl_->serving_.load(std::memory_order_acquire);
}

ServeStats MapServer::stats() const { return impl_->Stats(); }

}  // namespace gkgpu::serve
