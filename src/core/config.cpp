#include "core/config.hpp"

#include <algorithm>
#include <cassert>

#include "util/bitops.hpp"

namespace gkgpu {

namespace {
// Calibration constants for the kernel cost model (simple-ALU ops).  The
// bit-parallel core touches every encoded word a handful of times per mask
// and keeps its masks in thread-local memory, which on real hardware is
// L1/L2-cached local memory traffic — modelled as extra bytes per thread.
constexpr double kOpsBase = 60.0;
constexpr double kOpsPerEncWordPerMask = 14.0;
constexpr double kOpsPerMaskWordPerMask = 18.0;
constexpr double kOpsPerBaseEncode = 6.0;
constexpr double kLocalBytesPerWordPerMask = 12.0;
constexpr double kLocalBytesPerBaseEncode = 8.0;

// Threads per block in the paper's shipping configuration, and the share
// of free global memory the configuration step may claim.
constexpr int kThreadsPerBlock = 1024;
constexpr double kMemSafetyFactor = 0.85;
}  // namespace

std::size_t EstimateThreadLoad(int length, int e) {
  const std::size_t enc = static_cast<std::size_t>(EncodedWords(length));
  const std::size_t msk = static_cast<std::size_t>(MaskWords(length));
  // final mask + working mask + shifted read + diff scratch + locals.
  (void)e;  // masks are AND-accumulated, so the frame is e-independent
  return (2 * msk + 2 * enc) * sizeof(Word) + 64;
}

gpusim::KernelCost EstimateKernelCost(int length, int e,
                                      bool device_encodes) {
  const double enc_words = EncodedWords(length);
  const double mask_words = MaskWords(length);
  const double masks = 2.0 * e + 1.0;
  gpusim::KernelCost cost;
  cost.ops_per_thread =
      kOpsBase + masks * (kOpsPerEncWordPerMask * enc_words +
                          kOpsPerMaskWordPerMask * mask_words);
  // PCIe-visible bytes: encoded read + encoded/extracted ref + result +
  // index; raw characters replace the encoded read when the device encodes.
  double bytes = 2.0 * enc_words * sizeof(Word) + 12.0;
  // Local-memory (stack) traffic served by the cache hierarchy.
  double local_bytes =
      masks * (enc_words + mask_words) * kLocalBytesPerWordPerMask;
  if (device_encodes) {
    cost.ops_per_thread += kOpsPerBaseEncode * 2.0 * length;
    bytes += 2.0 * length;  // the raw pair crosses the bus
    local_bytes += kLocalBytesPerBaseEncode * 2.0 * length;
  }
  cost.bytes_per_thread = bytes + local_bytes;
  cost.regs_per_thread = 48;
  cost.shared_mem_per_block = 0;
  return cost;
}

SystemPlan ConfigureSystem(const gpusim::Device& device,
                           const EngineConfig& config) {
  CheckFilterReadLength(config.read_length, "engine");
  assert(config.error_threshold >= 0 &&
         config.error_threshold <= kMaxErrorThreshold);
  assert(config.error_threshold < config.read_length);

  SystemPlan plan;
  plan.threads_per_block =
      std::min(kThreadsPerBlock, device.props().max_threads_per_block);
  plan.thread_load_bytes =
      EstimateThreadLoad(config.read_length, config.error_threshold);
  plan.kernel_cost =
      EstimateKernelCost(config.read_length, config.error_threshold,
                         config.encoding == EncodingActor::kDevice);
  plan.occupancy = device.Occupancy(plan.threads_per_block, plan.kernel_cost);

  // Unified-memory footprint of one pair: encoded read + encoded reference
  // segment (or the raw characters when the device encodes) + result +
  // candidate index.
  const std::size_t enc_bytes =
      static_cast<std::size_t>(EncodedWords(config.read_length)) * sizeof(Word);
  const std::size_t seq_bytes =
      config.encoding == EncodingActor::kDevice
          ? static_cast<std::size_t>(config.read_length)
          : enc_bytes;
  plan.pair_buffer_bytes = 2 * seq_bytes + sizeof(std::uint32_t) +
                           sizeof(std::int64_t) + 4 /* result */;

  const double budget =
      static_cast<double>(device.FreeGlobalMem()) * kMemSafetyFactor;
  std::size_t pairs = static_cast<std::size_t>(
      budget / static_cast<double>(plan.pair_buffer_bytes));
  // Round down to whole blocks and keep the grid within a sane bound.
  const std::size_t per_block =
      static_cast<std::size_t>(plan.threads_per_block);
  pairs = std::max(per_block, pairs - pairs % per_block);
  constexpr std::size_t kMaxPairsPerLaunch = std::size_t{1} << 26;  // 67M
  plan.pairs_per_batch = std::min(pairs, kMaxPairsPerLaunch);
  return plan;
}

}  // namespace gkgpu
