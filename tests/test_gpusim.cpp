// Tests for the GPU execution simulator: device profiles, occupancy rules,
// kernel launch coverage, unified-memory migration accounting, and the
// power model.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "gpusim/device.hpp"

namespace gkgpu::gpusim {
namespace {

TEST(DevicePropsTest, PaperSetupsMatchStatedParameters) {
  const DeviceProperties p1 = MakeGtx1080Ti();
  EXPECT_EQ(p1.sm_count * p1.cores_per_sm, 3584);  // "3584 CUDA cores"
  EXPECT_EQ(p1.compute_major, 6);
  EXPECT_EQ(p1.compute_minor, 1);  // "CUDA compute capability ... 6.1"
  EXPECT_TRUE(p1.supports_prefetch());
  EXPECT_EQ(p1.global_mem_bytes, std::size_t{10} * 1024 * 1024 * 1024);
  EXPECT_EQ(p1.pcie_gen, 3);

  const DeviceProperties p2 = MakeTeslaK20X();
  EXPECT_EQ(p2.sm_count * p2.cores_per_sm, 2688);
  EXPECT_EQ(p2.compute_major, 3);
  EXPECT_EQ(p2.compute_minor, 5);  // "CUDA compute capability ... 3.5"
  EXPECT_FALSE(p2.supports_prefetch());  // "data prefetching is not supported"
  EXPECT_EQ(p2.global_mem_bytes, std::size_t{5} * 1024 * 1024 * 1024);
  EXPECT_EQ(p2.pcie_gen, 2);
  EXPECT_LT(p2.pcie_bytes_per_second(), p1.pcie_bytes_per_second());
}

TEST(OccupancyTest, PaperScenarioFortyEightRegs1024Threads) {
  // Sec. 5.4.1: 48 regs/thread at 1024 threads/block -> 50% theoretical
  // occupancy, register-limited.
  const OccupancyResult r =
      ComputeOccupancy(MakeGtx1080Ti(), 1024, 48, 0);
  EXPECT_EQ(r.active_warps_per_sm, 32);
  EXPECT_EQ(r.max_warps_per_sm, 64);
  EXPECT_DOUBLE_EQ(r.occupancy, 0.5);
  EXPECT_EQ(r.limited_by, OccupancyLimiter::kRegisters);
}

TEST(OccupancyTest, PaperScenario256ThreadsReachesSixtyThreePercent) {
  // Sec. 5.4.1: "maximum theoretical occupancy with 48 registers ... is
  // 63%, but threads per block should be at most 256".
  const OccupancyResult r = ComputeOccupancy(MakeGtx1080Ti(), 256, 48, 0);
  EXPECT_NEAR(r.occupancy, 0.63, 0.02);
}

TEST(OccupancyTest, FullOccupancyAtThirtyTwoRegs) {
  // "the maximum number of registers per thread is 32 for 100% occupancy".
  const OccupancyResult r = ComputeOccupancy(MakeGtx1080Ti(), 1024, 32, 0);
  EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(DeviceTest, LaunchExecutesEveryThreadExactlyOnce) {
  Device dev(MakeGtx1080Ti(), 4);
  const LaunchConfig cfg{37, 256};
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(37 * 256));
  dev.Launch(cfg, KernelCost{}, 0.0, [&](const ThreadCtx& ctx) {
    hits[static_cast<std::size_t>(ctx.GlobalId())].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(DeviceTest, KernelTimeScalesWithWork) {
  Device dev(MakeGtx1080Ti(), 2);
  KernelCost small{100.0, 64.0, 48, 0};
  KernelCost big{10000.0, 64.0, 48, 0};
  const LaunchConfig cfg{1024, 1024};
  const double t_small =
      dev.Launch(cfg, small, 0.0, [](const ThreadCtx&) {});
  const double t_big = dev.Launch(cfg, big, 0.0, [](const ThreadCtx&) {});
  EXPECT_GT(t_big, t_small * 5);
}

TEST(DeviceTest, FaultSecondsExtendKernelTime) {
  Device dev(MakeGtx1080Ti(), 2);
  const LaunchConfig cfg{16, 256};
  const double clean =
      dev.Launch(cfg, KernelCost{}, 0.0, [](const ThreadCtx&) {});
  const double stalled =
      dev.Launch(cfg, KernelCost{}, 0.5, [](const ThreadCtx&) {});
  EXPECT_NEAR(stalled - clean, 0.5, 1e-6);
}

TEST(DeviceTest, AllocationTracksFreeMemory) {
  Device dev(MakeTeslaK20X(), 1);
  const std::size_t before = dev.FreeGlobalMem();
  {
    auto buf = dev.AllocateUnified(1 << 20);
    EXPECT_EQ(dev.FreeGlobalMem(), before - (1 << 20));
  }
  EXPECT_EQ(dev.FreeGlobalMem(), before);  // RAII releases
}

TEST(UnifiedMemoryTest, PrefetchThenFaultIsFree) {
  Device dev(MakeGtx1080Ti(), 1);
  auto buf = dev.AllocateUnified(UnifiedBuffer::kPageBytes * 8);
  const double prefetch_s = buf->PrefetchToDevice();
  EXPECT_GT(prefetch_s, 0.0);
  EXPECT_TRUE(buf->on_device());
  EXPECT_DOUBLE_EQ(buf->FaultToDevice(), 0.0);  // already resident
  EXPECT_EQ(dev.stats().page_faults, 0u);
  EXPECT_EQ(dev.stats().h2d_bytes, UnifiedBuffer::kPageBytes * 8);
}

TEST(UnifiedMemoryTest, DemandFaultingCostsMoreThanPrefetch) {
  Device dev(MakeGtx1080Ti(), 1);
  auto a = dev.AllocateUnified(UnifiedBuffer::kPageBytes * 64);
  auto b = dev.AllocateUnified(UnifiedBuffer::kPageBytes * 64);
  const double prefetch_s = a->PrefetchToDevice();
  const double fault_s = b->FaultToDevice();
  EXPECT_GT(fault_s, prefetch_s);  // per-fault latency on top of bandwidth
  EXPECT_EQ(dev.stats().page_faults, 64u);
}

TEST(UnifiedMemoryTest, KeplerHasNoPrefetchAndBulkMigration) {
  Device dev(MakeTeslaK20X(), 1);
  auto buf = dev.AllocateUnified(UnifiedBuffer::kPageBytes * 16);
  EXPECT_DOUBLE_EQ(buf->PrefetchToDevice(), 0.0);  // unsupported: no-op
  EXPECT_FALSE(buf->on_device());
  const double fault_s = buf->FaultToDevice();  // whole-allocation migration
  EXPECT_GT(fault_s, 0.0);
  EXPECT_TRUE(buf->on_device());
  EXPECT_EQ(dev.stats().page_faults, 0u);  // no per-page fault servicing
  EXPECT_EQ(dev.stats().h2d_bytes, UnifiedBuffer::kPageBytes * 16);
}

TEST(UnifiedMemoryTest, RoundTripAccountsBothDirections) {
  Device dev(MakeGtx1080Ti(), 1);
  auto buf = dev.AllocateUnified(UnifiedBuffer::kPageBytes * 4);
  buf->PrefetchToDevice();
  const double back_s = buf->FaultToHost();
  EXPECT_GT(back_s, 0.0);
  EXPECT_EQ(dev.stats().h2d_bytes, UnifiedBuffer::kPageBytes * 4);
  EXPECT_EQ(dev.stats().d2h_bytes, UnifiedBuffer::kPageBytes * 4);
  EXPECT_FALSE(buf->on_device());
}

TEST(PowerModelTest, IdleSetsMinActiveSetsMax) {
  PowerModel power(9000.0, 250000.0);
  power.SampleIdle(0.1);
  power.SampleKernel(0.6, 0.5);
  const PowerReport r = power.Report();
  EXPECT_NEAR(r.min_mw, 9000.0, 1.0);
  EXPECT_GT(r.max_mw, 100000.0);
  EXPECT_LT(r.max_mw, 250000.0);
  EXPECT_GT(r.avg_mw, r.min_mw);
  EXPECT_LT(r.avg_mw, r.max_mw);
}

TEST(PowerModelTest, HigherActivityDrawsMorePower) {
  PowerModel low(9000.0, 250000.0);
  PowerModel high(9000.0, 250000.0);
  low.SampleKernel(0.3, 0.5);
  high.SampleKernel(0.9, 0.5);
  EXPECT_GT(high.Report().max_mw, low.Report().max_mw);
}

TEST(SetupFactoriesTest, BuildRequestedCounts) {
  const auto s1 = MakeSetup1(3, 1);
  EXPECT_EQ(s1.size(), 3u);
  for (const auto& d : s1) EXPECT_EQ(d->props().name, "GeForce GTX 1080 Ti");
  const auto s2 = MakeSetup2(2, 1);
  EXPECT_EQ(s2.size(), 2u);
  for (const auto& d : s2) EXPECT_EQ(d->props().name, "Tesla K20X");
}

}  // namespace
}  // namespace gkgpu::gpusim
