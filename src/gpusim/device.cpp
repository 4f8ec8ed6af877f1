#include "gpusim/device.hpp"

#include <algorithm>
#include <cmath>

namespace gkgpu::gpusim {

namespace {
// Fixed kernel launch overhead (driver + scheduling), a few microseconds on
// real hardware.
constexpr double kLaunchOverheadSeconds = 5e-6;
}  // namespace

Device::Device(DeviceProperties props, unsigned host_threads)
    : props_(std::move(props)),
      pool_(host_threads, "gkgpu-dev"),
      power_(props_.idle_power_mw, props_.tdp_mw),
      free_mem_(props_.global_mem_bytes) {}

std::unique_ptr<UnifiedBuffer> Device::AllocateUnified(std::size_t bytes) {
  auto buf = std::make_unique<UnifiedBuffer>(this, bytes);
  free_mem_ -= std::min(free_mem_, bytes);
  return buf;
}

double Device::AccountKernel(const LaunchConfig& cfg, const KernelCost& cost,
                             double fault_seconds) {
  const OccupancyResult occ =
      Occupancy(std::max(1, cfg.block_dim), cost);
  // Warp execution efficiency: the tail wave and intra-warp divergence cost
  // a little; longer-running threads hide more latency (matches the paper's
  // 74-80% at 100 bp vs >98% at 250 bp).
  const double intensity =
      std::min(1.0, cost.ops_per_thread / 12000.0);
  const double warp_eff = 0.72 + 0.27 * intensity;
  const double occupancy_derate = 0.5 + 0.5 * occ.occupancy;
  const double effective_ops =
      props_.peak_ops_per_second() * warp_eff * occupancy_derate;
  const double total_threads = static_cast<double>(cfg.total_threads());
  const double compute_s = total_threads * cost.ops_per_thread / effective_ops;
  const double mem_s = total_threads * cost.bytes_per_thread /
                       (props_.mem_bandwidth_gb_s * 1e9);
  const double busy = std::max(compute_s, mem_s) + kLaunchOverheadSeconds +
                      fault_seconds;

  stats_.kernel_seconds += busy;
  stats_.kernels_launched += 1;
  stats_.achieved_occupancy_sum +=
      occ.occupancy * (0.93 + 0.05 * intensity);  // scheduling losses
  stats_.warp_efficiency_sum += warp_eff;
  // SMs stay busy as long as there are waves in flight.
  const double waves =
      total_threads /
      (static_cast<double>(props_.sm_count) * occ.active_warps_per_sm *
       props_.warp_size);
  stats_.sm_efficiency_sum += std::min(1.0, 0.9 + 0.02 * waves);

  // Electrical activity: arithmetic-heavy kernels (long reads) pull the
  // sustained draw toward TDP, and lower-clocked parts draw a smaller
  // fraction of theirs — reproducing Table 6's 100-vs-250 bp gap and the
  // Setup 1 / Setup 2 split.  Calibrated against the paper's nvprof data.
  const double activity =
      std::min(1.0, (0.3 + cost.ops_per_thread / 11000.0) *
                        (props_.core_clock_ghz / 1.6));
  power_.SampleKernel(activity, busy);
  return busy;
}

void Device::AccountIdle(double seconds) { power_.SampleIdle(seconds); }

void Device::AccountFault(std::uint64_t pages, std::uint64_t bytes,
                          bool host_to_device) {
  stats_.page_faults += pages;
  if (host_to_device) {
    stats_.h2d_bytes += bytes;
  } else {
    stats_.d2h_bytes += bytes;
  }
}

std::vector<std::unique_ptr<Device>> MakeSetup1(int count,
                                                unsigned host_threads) {
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < count; ++i) {
    devices.push_back(std::make_unique<Device>(MakeGtx1080Ti(), host_threads));
  }
  return devices;
}

std::vector<std::unique_ptr<Device>> MakeSetup2(int count,
                                                unsigned host_threads) {
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < count; ++i) {
    devices.push_back(std::make_unique<Device>(MakeTeslaK20X(), host_threads));
  }
  return devices;
}

}  // namespace gkgpu::gpusim
