// Tests for the worker pool that backs the simulated devices, the
// multicore CPU filter baseline and the mapper's chunk workers.
#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gkgpu {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, NonZeroBeginIsRespected) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(40, 60, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 40 && i < 60) ? 1 : 0) << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SequentialJobsDoNotInterfere) {
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(0, 1000, 13, [&](std::size_t b, std::size_t e) {
      std::uint64_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 999ull * 1000 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroGrainIsTreatedAsOne) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(0, hits.size(), 0, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ZeroGrainEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 0, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, InvertedRangeIsNoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(10, 3, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RangeNearSizeMaxDoesNotWrap) {
  ThreadPool pool(2);
  const std::size_t max = static_cast<std::size_t>(-1);
  // Both an end == SIZE_MAX range and one with a small gap below it: the
  // second would wrap through the cumulative one-grain-per-participant
  // claim overshoot if only a single grain of headroom were reserved.
  for (const std::size_t end : {max, max - 4}) {
    std::atomic<std::uint64_t> items{0};
    std::atomic<int> bad{0};
    pool.ParallelFor(end - 10, end, 4, [&](std::size_t b, std::size_t e) {
      if (e <= b || e > end || b < end - 10) ++bad;
      items.fetch_add(e - b);
    });
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(items.load(), 10u);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyAndCompletes) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> inner_items{0};
  pool.ParallelFor(0, 64, 4, [&](std::size_t b, std::size_t e) {
    pool.ParallelFor(b * 10, e * 10, 3, [&](std::size_t ib, std::size_t ie) {
      inner_items.fetch_add(ie - ib);
    });
  });
  EXPECT_EQ(inner_items.load(), 640u);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePoolSafely) {
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr std::size_t kItems = 5000;
  std::vector<std::atomic<std::uint64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.ParallelFor(0, kItems, 17, [&](std::size_t b, std::size_t e) {
          std::uint64_t local = 0;
          for (std::size_t i = b; i < e; ++i) local += i;
          sum.fetch_add(local);
        });
        ASSERT_EQ(sum.load(), (kItems - 1) * kItems / 2)
            << "caller " << c << " round " << round;
      }
      sums[c].store(1);
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c].load(), 1u);
}

/// After a failed job the pool must run the next one in parallel again,
/// covering every index exactly once.
void ExpectPoolStillParallel(ThreadPool& pool) {
  std::vector<std::atomic<int>> hits(400);
  std::mutex mu;
  std::set<std::thread::id> threads;
  pool.ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
    {
      std::lock_guard<std::mutex> lk(mu);
      threads.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_GE(threads.size(), 2u);
}

TEST(ThreadPoolTest, WorkerExceptionReachesTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 1,
                       [&](std::size_t, std::size_t) {
                         started.fetch_add(1);
                         if (std::this_thread::get_id() != caller) {
                           throw std::runtime_error("worker chunk failed");
                         }
                         // The caller paces itself so workers claim chunks.
                         std::this_thread::sleep_for(
                             std::chrono::microseconds(200));
                       }),
      std::runtime_error);
  // The throw stopped the claiming of further chunks.
  EXPECT_LT(started.load(), 1000);
  ExpectPoolStillParallel(pool);
}

TEST(ThreadPoolTest, CallerExceptionWaitsForWorkersAndReachesTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> running{0};
  try {
    pool.ParallelFor(0, 1000, 1, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() == caller) {
        throw std::logic_error("caller chunk failed");
      }
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1);
    });
    ADD_FAILURE() << "the caller's exception was swallowed";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "caller chunk failed");
    // No chunk of the stack-allocated job outlives the call.
    EXPECT_EQ(running.load(), 0);
  }
  ExpectPoolStillParallel(pool);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::uint64_t sum = 0;  // no synchronization: must still be correct
  pool.ParallelFor(0, 100, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 99ull * 100 / 2);
}

}  // namespace
}  // namespace gkgpu
