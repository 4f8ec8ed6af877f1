// Host-speed probe for the timed passes.
//
// The benchmark runs on shared machines whose speed drifts as other
// tenants load them: on the baseline host the same pass slowed from 0.41 s
// to 0.59 s within one 40 s run, and its CPU time rose with it, so the host
// did less work per second rather than the program waiting more.  Before
// every timed pass the benchmark measures the host with this probe, which
// shares no code with the program, in two parts:
//
//   * work — four threads each chase pointers through a 32 MiB random
//     cycle (memory latency, like seeding's index lookups) and then spin an
//     integer xorshift loop (core speed, like verification);
//   * hand-off — two threads pass a turn back and forth under a mutex and
//     condition variable (thread wake-up latency, like the pipeline's
//     bounded queues and the daemon's sockets).
//
// Each part's speed is its baseline-host median over its duration now, and
// the probe's speed is their geometric mean, held within [kMinSpeed,
// kMaxSpeed].  The time metrics of the pass that follows are multiplied by
// that speed, which reports them in baseline-host time: host drift cancels,
// a change to the program does not.
// Over ten seeds on the baseline host this cut the quartile spread of
// reads/s from 17.3% to 6.4% on serve-2c, 10.0% to 6.0% on pe-insert and
// 7.3% to 3.6% on se-large; either part alone did worse on serve-2c.
#ifndef GKGPU_BENCH_E2E_PROBE_HPP
#define GKGPU_BENCH_E2E_PROBE_HPP

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "e2e_io.hpp"

namespace gkgpu::e2e {

class HostProbe {
 public:
  struct Reading {
    double speed = 1.0;    // > 1: the host is faster than the baseline
    double seconds = 0.0;  // wall time the probe took
  };

  HostProbe() : next_(kSlots) {
    // Sattolo's shuffle: one cycle through every slot, so a chase never
    // settles into a cache-resident loop.
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      s = XorShift(s);
      std::swap(order[i], order[s % i]);
    }
    for (std::uint32_t i = 0; i + 1 < kSlots; ++i) {
      next_[order[i]] = order[i + 1];
    }
    next_[order[kSlots - 1]] = order[0];
  }

  Reading Measure() const {
    const double work = Work();
    const double handoff = Handoff();
    const double speed = std::sqrt(kWorkBaselineSeconds / work *
                                   (kHandoffBaselineSeconds / handoff));
    return {std::clamp(speed, kMinSpeed, kMaxSpeed), work + handoff};
  }

 private:
  // Medians of each part over 401 probe runs on the baseline host.
  static constexpr double kWorkBaselineSeconds = 0.12;
  static constexpr double kHandoffBaselineSeconds = 0.03;
  // Ordinary drift stays inside this range (0.92-1.20 over the baseline
  // calibrations).  Heavier contention slows the probe more than the
  // program — two spinning processes double the work part's time but slow
  // a se-repeat pass by 5% — so beyond it the probe no longer stands in
  // for the program, and the factor is held at the edge.
  static constexpr double kMinSpeed = 0.75;
  static constexpr double kMaxSpeed = 1.33;
  static constexpr std::uint32_t kSlots = 1u << 23;  // 32 MiB of uint32
  static constexpr std::uint32_t kThreads = 4;
  static constexpr int kChaseSteps = 400'000;
  static constexpr int kSpinSteps = 20'000'000;
  static constexpr int kHandoffs = 2000;

  static std::uint64_t XorShift(std::uint64_t s) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }

  double Work() const {
    std::atomic<std::uint64_t> sink{0};
    const std::int64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, t, &sink] {
        std::uint32_t p = t * (kSlots / kThreads);
        for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
        std::uint64_t s = p + 1;
        std::uint64_t acc = 0;
        for (int i = 0; i < kSpinSteps; ++i) {
          s = XorShift(s);
          acc += s >> 60;
        }
        sink.fetch_add(acc, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : threads) t.join();
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

  static double Handoff() {
    std::mutex mu;
    std::condition_variable cv;
    bool other_turn = false;  // guarded by mu
    const std::int64_t t0 = NowNs();
    std::thread other([&] {
      for (int i = 0; i < kHandoffs; ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return other_turn; });
        other_turn = false;
        lock.unlock();
        cv.notify_all();
      }
    });
    for (int i = 0; i < kHandoffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      other_turn = true;
      lock.unlock();
      cv.notify_all();
      lock.lock();
      cv.wait(lock, [&] { return !other_turn; });
    }
    other.join();
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

  std::vector<std::uint32_t> next_;
};

}  // namespace gkgpu::e2e

#endif  // GKGPU_BENCH_E2E_PROBE_HPP
