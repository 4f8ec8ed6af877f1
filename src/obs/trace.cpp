#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

namespace gkgpu::obs {

namespace {

struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t ts_us;   // relative to collector start
  std::uint64_t dur_us;
  std::uint64_t tid;
};

// Cap the event buffer so a pathological run can't eat the heap; the
// JSON notes the drop count when the cap is hit.
constexpr std::size_t kMaxEvents = 1u << 20;

struct Collector {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::unordered_map<std::uint64_t, std::string> thread_names;
  std::uint64_t dropped = 0;
  std::chrono::steady_clock::time_point epoch;
};

// Non-null while tracing is active.  Acquire/release pairs the pointer
// with the collector's initialized contents.
std::atomic<Collector*> g_collector{nullptr};

// Threads that may hold a collector pointer (Span::Close and
// RegisterTraceThreadName): each counts itself in before it loads
// g_collector and out once it is done with the collector.  All of it is
// seq_cst, so a user that loaded a collector before the swap is still
// counted when the swapper drains.
std::atomic<std::uint64_t> g_users{0};

/// Counts the calling thread in g_users for its scope.
struct UserScope {
  UserScope() { g_users.fetch_add(1, std::memory_order_seq_cst); }
  ~UserScope() { g_users.fetch_sub(1, std::memory_order_seq_cst); }
  UserScope(const UserScope&) = delete;
  UserScope& operator=(const UserScope&) = delete;
};

/// Waits until nothing can still hold a collector that was swapped out
/// of g_collector before the call; the caller may then free it.
void DrainUsers() {
  while (g_users.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

// Survives Stop/Start cycles so names registered before StartTracing
// (threads usually outlive trace sessions) still label the output.
std::mutex g_names_mu;
std::unordered_map<std::uint64_t, std::string>& PersistentNames() {
  static auto* names = new std::unordered_map<std::uint64_t, std::string>;
  return *names;
}

std::uint64_t CurrentTid() noexcept {
  static thread_local const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffu;
  return tid;
}

std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::uint64_t ProcessId() noexcept {
#ifdef __linux__
  return static_cast<std::uint64_t>(::getpid());
#else
  return 1;
#endif
}

}  // namespace

bool TracingActive() noexcept {
  return g_collector.load(std::memory_order_relaxed) != nullptr;
}

void StartTracing() {
  auto* c = new Collector;
  c->epoch = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(g_names_mu);
    c->thread_names = PersistentNames();
  }
  const std::unique_ptr<Collector> old(
      g_collector.exchange(c, std::memory_order_seq_cst));
  if (old != nullptr) DrainUsers();
}

void RegisterTraceThreadName(const std::string& name) {
  const std::uint64_t tid = CurrentTid();
  {
    std::lock_guard<std::mutex> lock(g_names_mu);
    PersistentNames()[tid] = name;
  }
  const UserScope user;
  Collector* c = g_collector.load(std::memory_order_seq_cst);
  if (c != nullptr) {
    std::lock_guard<std::mutex> lock(c->mu);
    c->thread_names[tid] = name;
  }
}

void Span::Close() noexcept {
  if (name_ == nullptr) return;
  const char* name = name_;
  const char* category = category_;
  name_ = nullptr;
  const UserScope user;
  Collector* c = g_collector.load(std::memory_order_seq_cst);
  if (c == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.tid = CurrentTid();
  std::lock_guard<std::mutex> lock(c->mu);
  const auto since_epoch = start_ - c->epoch;
  const auto dur = end - start_;
  ev.ts_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(since_epoch)
             .count()));
  ev.dur_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(dur).count()));
  if (c->events.size() >= kMaxEvents) {
    ++c->dropped;
    return;
  }
  c->events.push_back(ev);
}

std::string StopTracing() {
  const std::unique_ptr<Collector> c(
      g_collector.exchange(nullptr, std::memory_order_seq_cst));
  if (c == nullptr) return "{\"traceEvents\":[]}\n";
  // A Span that loaded the pointer before the exchange may still be
  // appending; once the users drain, nothing else can reach `c`.
  DrainUsers();
  const std::uint64_t pid = ProcessId();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : c->thread_names) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
        << EscapeJson(name) << "\"}}";
  }
  for (const auto& ev : c->events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << EscapeJson(ev.name) << "\",\"cat\":\""
        << EscapeJson(ev.category) << "\",\"ph\":\"X\",\"ts\":" << ev.ts_us
        << ",\"dur\":" << ev.dur_us << ",\"pid\":" << pid
        << ",\"tid\":" << ev.tid << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"";
  if (c->dropped > 0) {
    out << ",\"metadata\":{\"dropped_events\":" << c->dropped << "}";
  }
  out << "}\n";
  return out.str();
}

}  // namespace gkgpu::obs
