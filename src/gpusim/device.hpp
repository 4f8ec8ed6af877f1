// The simulated GPGPU device: a CUDA-shaped execution environment backed by
// a host thread pool.
//
// Functional semantics: Launch() really executes the kernel functor for
// every (block, thread) coordinate, in parallel on host worker threads, so
// results are bit-exact with the algorithm under test.
//
// Timing semantics: each launch also advances a simulated device timeline
// using a roofline model — compute time from an operation estimate per
// thread scaled by occupancy-derated core throughput, memory time from
// bytes touched over device bandwidth, plus a fixed launch overhead — and
// page-fault / transfer costs from the unified-memory simulation.  Kernel
// time ("kt" in the paper's tables) is read from this timeline; wall-clock
// host time ("ft") is measured for real around it.
#ifndef GKGPU_GPUSIM_DEVICE_HPP
#define GKGPU_GPUSIM_DEVICE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device_props.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/power.hpp"
#include "gpusim/unified_memory.hpp"
#include "util/threadpool.hpp"

namespace gkgpu::gpusim {

/// 1-D launch geometry (GateKeeper-GPU launches 1-D grids of 1-D blocks).
struct LaunchConfig {
  std::int64_t grid_dim = 1;
  int block_dim = 1;
  std::int64_t total_threads() const {
    return grid_dim * static_cast<std::int64_t>(block_dim);
  }
};

/// Per-thread coordinates handed to the kernel functor.
struct ThreadCtx {
  std::int64_t block_idx;
  int thread_idx;
  int block_dim;
  std::int64_t grid_dim;
  std::int64_t GlobalId() const {
    return block_idx * static_cast<std::int64_t>(block_dim) + thread_idx;
  }
};

/// Cost declaration for the timing model: how much work one thread does.
struct KernelCost {
  double ops_per_thread = 100.0;    // simple ALU operations
  double bytes_per_thread = 64.0;   // device-memory traffic
  int regs_per_thread = 48;         // GateKeeper-GPU's measured worst case
  std::size_t shared_mem_per_block = 0;  // the kernel uses none
};

/// Per-device counters, accumulated over the device's life: the one tally
/// of its modeled kernels and unified-memory migrations.
struct DeviceStats {
  double kernel_seconds = 0.0;     // simulated in-kernel time
  double transfer_seconds = 0.0;   // simulated PCIe time (prefetch + fault)
  std::uint64_t kernels_launched = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t page_faults = 0;
  double achieved_occupancy_sum = 0.0;  // averaged over launches
  double warp_efficiency_sum = 0.0;
  double sm_efficiency_sum = 0.0;
};

class Device {
 public:
  /// `host_threads` sizes the worker pool that stands in for the SMs
  /// (0 = hardware concurrency).
  explicit Device(DeviceProperties props, unsigned host_threads = 0);

  const DeviceProperties& props() const { return props_; }

  /// Free simulated global memory (allocations via AllocateUnified count
  /// against it; the engine's batch sizing queries this, as the paper's
  /// system-configuration step does).
  std::size_t FreeGlobalMem() const { return free_mem_; }

  std::unique_ptr<UnifiedBuffer> AllocateUnified(std::size_t bytes);

  /// Launches the kernel: executes functor(ThreadCtx) for every thread in
  /// the grid (parallelized over blocks) and advances the simulated device
  /// clock.  `fault_seconds` — unified-memory stall time the launch incurs
  /// (from UnifiedBuffer::FaultToDevice on unprefetched inputs) — is added
  /// to the kernel's critical path.  Returns the simulated kernel seconds.
  template <typename Kernel>
  double Launch(const LaunchConfig& cfg, const KernelCost& cost,
                double fault_seconds, Kernel&& kernel) {
    pool_.ParallelFor(
        0, static_cast<std::size_t>(cfg.grid_dim), 1,
        [&](std::size_t b0, std::size_t b1) {
          for (std::size_t b = b0; b < b1; ++b) {
            for (int t = 0; t < cfg.block_dim; ++t) {
              kernel(ThreadCtx{static_cast<std::int64_t>(b), t, cfg.block_dim,
                               cfg.grid_dim});
            }
          }
        });
    return AccountKernel(cfg, cost, fault_seconds);
  }

  /// Timing-model-only variant (used when the caller already executed the
  /// work, e.g. replaying a measured batch).
  double AccountKernel(const LaunchConfig& cfg, const KernelCost& cost,
                       double fault_seconds);

  /// Charges idle time between batches (feeds the power model's minimum).
  void AccountIdle(double seconds);

  void AccountFault(std::uint64_t pages, std::uint64_t bytes,
                    bool host_to_device);

  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }

  PowerModel& power() { return power_; }
  const PowerModel& power() const { return power_; }

  ThreadPool& pool() { return pool_; }

  /// Theoretical occupancy of a kernel with the given cost on this device.
  OccupancyResult Occupancy(int threads_per_block,
                            const KernelCost& cost) const {
    return ComputeOccupancy(props_, threads_per_block, cost.regs_per_thread,
                            cost.shared_mem_per_block);
  }

 private:
  friend class UnifiedBuffer;

  DeviceProperties props_;
  ThreadPool pool_;
  PowerModel power_;
  DeviceStats stats_;
  std::size_t free_mem_;
};

/// Builds the paper's Setup 1 (`count` GTX 1080 Ti devices, up to 8) or
/// Setup 2 (`count` Tesla K20X devices, up to 4).
std::vector<std::unique_ptr<Device>> MakeSetup1(int count,
                                                unsigned host_threads = 0);
std::vector<std::unique_ptr<Device>> MakeSetup2(int count,
                                                unsigned host_threads = 0);

}  // namespace gkgpu::gpusim

#endif  // GKGPU_GPUSIM_DEVICE_HPP
