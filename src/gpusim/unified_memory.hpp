// Simulated CUDA unified memory: host-backed allocations visible through a
// single pointer, with residency tracking, asynchronous prefetching, and
// on-demand migration cost accounting.  The GateKeeper-GPU engine uses the
// flow the paper describes: prefetch input buffers on separate streams
// ahead of the kernel, and let results migrate back on host access.
// Residency is whole-buffer (every migration moves every 64 KiB page, so
// one flag says where the buffer is); cudaMemAdvise hints are not modeled,
// and the bytes and faults moved are counted once, in the home device's
// DeviceStats.
//
// Real data always lives in host DRAM (there is no physical device); what
// the simulation tracks is *where the pages would be* and what the
// migrations would cost on the configured PCIe link.
#ifndef GKGPU_GPUSIM_UNIFIED_MEMORY_HPP
#define GKGPU_GPUSIM_UNIFIED_MEMORY_HPP

#include <cstddef>
#include <memory>

#include "gpusim/device_props.hpp"

namespace gkgpu::gpusim {

class Device;

class UnifiedBuffer {
 public:
  /// Unified-memory page granularity (64 KiB, Pascal's fault group size).
  static constexpr std::size_t kPageBytes = 64 * 1024;

  UnifiedBuffer(Device* home, std::size_t bytes);
  ~UnifiedBuffer();

  UnifiedBuffer(const UnifiedBuffer&) = delete;
  UnifiedBuffer& operator=(const UnifiedBuffer&) = delete;

  std::size_t bytes() const { return bytes_; }
  void* data() { return storage_.get(); }
  const void* data() const { return storage_.get(); }
  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(storage_.get());
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(storage_.get());
  }

  /// Simulates cudaMemPrefetchAsync to the device: pages move in bulk at
  /// link bandwidth with no fault overhead.  Returns the simulated seconds
  /// the transfer occupies on the link (charged to the issuing stream by
  /// the caller).  No-op (returns 0) when the device lacks prefetch
  /// support, mirroring the engine's capability check.
  double PrefetchToDevice();

  /// Simulates the kernel touching the whole buffer: non-resident pages
  /// fault in one group at a time (bandwidth + per-fault latency) on
  /// demand-paging devices, or the whole allocation migrates on Kepler.
  /// Returns simulated seconds added to the kernel's critical path.
  double FaultToDevice();

  /// Simulates host code touching the buffer after a kernel (results read
  /// back).  Pages resident on the device migrate back.
  double FaultToHost();

  /// Marks every page dirty-on-device without cost (used for buffers the
  /// kernel writes; the cost is paid when the host faults them back).
  void MarkDeviceResident();

  /// Marks every page host-resident without cost.  The engine calls this
  /// after host code rewrites a reused batch buffer; the refill cost is
  /// charged by the next prefetch.
  void MarkHostResident();

  std::size_t pages() const { return (bytes_ + kPageBytes - 1) / kPageBytes; }
  bool on_device() const { return on_device_; }

 private:
  double MigrateAll(bool to_device, bool faulting);

  Device* home_;
  std::size_t bytes_;
  std::unique_ptr<std::byte[]> storage_;
  bool on_device_ = false;
};

}  // namespace gkgpu::gpusim

#endif  // GKGPU_GPUSIM_UNIFIED_MEMORY_HPP
