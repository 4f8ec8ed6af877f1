#include "gpusim/unified_memory.hpp"

#include <algorithm>

#include "gpusim/device.hpp"

namespace gkgpu::gpusim {

namespace {
// Latency of servicing one 64 KiB fault group on top of the raw copy
// (driver round-trip + page-table update); Pascal-era measurements put the
// effective overhead in the tens of microseconds per group.
constexpr double kFaultLatencySeconds = 25e-6;
}  // namespace

UnifiedBuffer::UnifiedBuffer(Device* home, std::size_t bytes)
    : home_(home),
      bytes_(bytes),
      storage_(
          std::make_unique<std::byte[]>(std::max<std::size_t>(bytes, 1))) {}

UnifiedBuffer::~UnifiedBuffer() {
  if (home_ != nullptr) {
    home_->free_mem_ = std::min(home_->props().global_mem_bytes,
                                home_->free_mem_ + bytes_);
  }
}

double UnifiedBuffer::MigrateAll(bool to_device, bool faulting) {
  if (on_device_ == to_device) return 0.0;
  on_device_ = to_device;
  const std::uint64_t moved_pages = pages();
  const std::uint64_t moved_bytes =
      std::min<std::uint64_t>(moved_pages * kPageBytes, bytes_);
  double seconds = static_cast<double>(moved_bytes) /
                   home_->props().pcie_bytes_per_second();
  if (faulting) {
    // Demand paging services one fault group at a time; without it (bulk
    // prefetch or Kepler whole-allocation migration) only bandwidth counts.
    seconds += static_cast<double>(moved_pages) * kFaultLatencySeconds;
    home_->AccountFault(moved_pages, moved_bytes, to_device);
  } else {
    home_->AccountFault(0, moved_bytes, to_device);
  }
  home_->stats().transfer_seconds += seconds;
  return seconds;
}

double UnifiedBuffer::PrefetchToDevice() {
  if (!home_->props().supports_prefetch()) return 0.0;
  return MigrateAll(/*to_device=*/true, /*faulting=*/false);
}

double UnifiedBuffer::FaultToDevice() {
  // Kepler-class devices migrate the whole allocation at launch without
  // per-page fault servicing; Pascal pages on demand.
  const bool faulting = home_->props().supports_demand_paging();
  return MigrateAll(/*to_device=*/true, faulting);
}

double UnifiedBuffer::FaultToHost() {
  const bool faulting = home_->props().supports_demand_paging();
  return MigrateAll(/*to_device=*/false, faulting);
}

void UnifiedBuffer::MarkDeviceResident() { on_device_ = true; }

void UnifiedBuffer::MarkHostResident() { on_device_ = false; }

}  // namespace gkgpu::gpusim
