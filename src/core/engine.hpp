// GateKeeperGpuEngine: the top-level GateKeeper-GPU pipeline.
//
// Mirrors the paper's four main steps: (1) system configuration against the
// attached devices, (2) unified-memory resource allocation, (3) read/
// reference preprocessing (2-bit encoding in host or device), (4) batched
// kernel filtration, multi-GPU with equal per-device batches.  One round
// loop runs both input modes: each round carves an equal slice per
// device, prepares every slice on its device's host thread, launches the
// kernel once per device and reads the results back.  The modes differ
// only in what a slice is made of:
//   * pair mode       — explicit (read, reference segment) pairs, encoded
//                       on the host or copied raw for the device to encode;
//                       used by the accuracy / throughput experiments;
//   * candidate mode  — (read, position) candidates against the encoded
//                       genome resident on every device, the mrFAST
//                       integration of Sec. 3.5; the read table is encoded
//                       once per call, the candidates copied per round.
//
// Both run on the simulated devices and serve the paper's tables
// (FilterPairs for the filter benches, FilterCandidates for MapReads'
// Table 3).  The streaming drivers (single-end, paired, the daemon) take
// a host PreAlignmentFilter instead and run it over the mapper's own
// reference encoding (pipeline/chunk_filter.hpp); they build no engine.
//
// Timing conventions (Sec. 4.3): "kernel time" is simulated device time
// only (max across devices per round, summed over rounds); "filter time"
// adds host-side preprocessing (measured for real) and the simulated PCIe
// transfers, with prefetch-capable devices overlapping transfer and
// compute.
#ifndef GKGPU_CORE_ENGINE_HPP
#define GKGPU_CORE_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/gatekeeper_kernel.hpp"
#include "encode/encoded.hpp"
#include "filters/filter.hpp"
#include "gpusim/device.hpp"

namespace gkgpu {

/// Simulated timings of one kernel launch on one device.
struct StreamBatchStats {
  double kernel_seconds = 0.0;    // simulated device time
  double transfer_seconds = 0.0;  // simulated PCIe (prefetch + result fault)
};

/// Aggregated statistics of one Filter* call.
struct FilterRunStats {
  std::uint64_t pairs = 0;
  std::uint64_t batches = 0;      // kernel rounds
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bypassed = 0;     // undefined pairs
  double kernel_seconds = 0.0;    // simulated device time ("kt")
  double filter_seconds = 0.0;    // host + device total ("ft")
  double host_encode_seconds = 0.0;
  double host_copy_seconds = 0.0;
  double transfer_seconds = 0.0;  // simulated PCIe time
};

class GateKeeperGpuEngine {
 public:
  /// The engine borrows the devices; they must outlive it.  All devices
  /// must share a profile (the paper's setups are homogeneous).  Throws
  /// std::invalid_argument when `devices` is empty or `config.read_length`
  /// exceeds the filter kernels' capacity (ConfigureSystem).
  GateKeeperGpuEngine(EngineConfig config,
                      std::vector<gpusim::Device*> devices);
  ~GateKeeperGpuEngine();

  const EngineConfig& config() const { return config_; }
  const SystemPlan& plan() const { return plan_; }

  /// Pair mode: filters reads[i] against refs[i] and fills results (accept
  /// flag + approximate edit distance per pair).  Throws
  /// std::invalid_argument, naming the pair, unless every read and
  /// reference is config().read_length bases long.
  FilterRunStats FilterPairs(const std::vector<std::string>& reads,
                             const std::vector<std::string>& refs,
                             std::vector<PairResult>* results);

  /// Candidate mode, step 1: encode the reference into unified memory on
  /// every device (multithreaded host encoding, Sec. 3.5) and prefetch it.
  void LoadReference(std::string_view genome);
  /// Same, from a pre-built encoding (the mapper's, or an mmap'd index
  /// file's) — skips the host encoding pass entirely.
  void LoadReference(const ReferenceEncodingView& enc);
  bool HasReference() const { return !ref_buffers_.empty(); }

  /// Candidate mode, step 2: filter candidate mappings of `reads` (each
  /// exactly config().read_length bases; std::invalid_argument naming the
  /// read otherwise).  Candidates index into `reads`.  The string_view
  /// overload lets callers hand a window into an existing read set without
  /// per-batch string copies (the blocking mapper builds its batch read
  /// tables as views).
  FilterRunStats FilterCandidates(const std::vector<std::string>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);
  FilterRunStats FilterCandidates(const std::vector<std::string_view>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);

 private:
  struct DeviceBuffers;
  /// Device di's share of a call: the block its kernel reads (the buffer
  /// pointers; RunRounds sets the size and read length each round) and the
  /// buffers each launch moves to the device, in the order a device
  /// without prefetch faults them in.
  struct DeviceInput {
    PairBlock block;
    std::vector<gpusim::UnifiedBuffer*> buffers;
  };
  /// Fills device di's buffers with pairs [begin, begin + count) of a call.
  using Prepare = std::function<void(std::size_t di, std::size_t begin,
                                     std::size_t count)>;

  /// Pairs per device per round for a call of `n` pairs: an equal split,
  /// at most the plan's batch.
  std::size_t SliceCapacity(std::size_t n) const;
  /// Filters the results->size() pairs of a call in rounds of at most
  /// `capacity` pairs per device, adding prepare's host time to
  /// stats->*prepare_seconds and everything else to `stats`.
  void RunRounds(std::size_t capacity, const std::vector<DeviceInput>& inputs,
                 const Prepare& prepare,
                 double FilterRunStats::*prepare_seconds,
                 FilterRunStats* stats, std::vector<PairResult>* results);
  /// One kernel launch on device di: the prefetch of `inputs` (or
  /// demand faults, in list order, without prefetch), the kernel over
  /// `block`, and the migration of its results back to the host.
  StreamBatchStats Launch(std::size_t di, const PairBlock& block,
                          const std::vector<gpusim::UnifiedBuffer*>& inputs);

  EngineConfig config_;
  std::vector<gpusim::Device*> devices_;
  SystemPlan plan_;

  std::vector<std::unique_ptr<DeviceBuffers>> buffers_;
  // Reference genome, one unified copy per device (as each GPU needs its
  // own resident copy).
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_buffers_;
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_nmask_buffers_;
  std::int64_t ref_length_ = 0;
};

}  // namespace gkgpu

#endif  // GKGPU_CORE_ENGINE_HPP
