// GateKeeperGpuEngine: the top-level GateKeeper-GPU pipeline.
//
// Mirrors the paper's four main steps: (1) system configuration against the
// attached devices, (2) unified-memory resource allocation, (3) read/
// reference preprocessing (2-bit encoding in host or device), (4) batched
// kernel filtration, multi-GPU with equal per-device batches.  Works in two
// input modes:
//   * pair mode       — explicit (read, reference segment) pairs, used by
//                       the accuracy / throughput experiments;
//   * candidate mode  — encoded reference + (read, position) candidates,
//                       the mrFAST integration of Sec. 3.5.
//
// Both run on the simulated devices and serve the paper's tables
// (FilterPairs for the filter benches, FilterCandidates for MapReads'
// Table 3).  The streaming drivers (single-end, paired, the daemon)
// filter on the host instead, one GateKeeperFilter::FilterBatch per chunk
// over a candidates-shape PairBlock (pipeline/chunk_filter.hpp); from the
// engine they take only its config and the loaded reference encoding.
//
// Timing conventions (Sec. 4.3): "kernel time" is simulated device time
// only (max across devices per round, summed over rounds); "filter time"
// adds host-side preprocessing (measured for real) and the simulated PCIe
// transfers, with prefetch-capable devices overlapping transfer and
// compute.
#ifndef GKGPU_CORE_ENGINE_HPP
#define GKGPU_CORE_ENGINE_HPP

#include <cstdint>
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
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t page_faults = 0;
};

class GateKeeperGpuEngine {
 public:
  /// The engine borrows the devices; they must outlive it.  All devices
  /// must share a profile (the paper's setups are homogeneous).
  GateKeeperGpuEngine(EngineConfig config,
                      std::vector<gpusim::Device*> devices);
  ~GateKeeperGpuEngine();

  const EngineConfig& config() const { return config_; }
  const SystemPlan& plan() const { return plan_; }

  /// Pair mode: filters reads[i] against refs[i] (equal length) and fills
  /// results (accept flag + approximate edit distance per pair).
  FilterRunStats FilterPairs(const std::vector<std::string>& reads,
                             const std::vector<std::string>& refs,
                             std::vector<PairResult>* results);

  /// Candidate mode, step 1: encode the reference into unified memory on
  /// every device (multithreaded host encoding, Sec. 3.5) and prefetch it.
  void LoadReference(std::string_view genome);
  /// Same, from a pre-built encoding (an mmap'd index file) — skips the
  /// host encoding pass entirely.  `fingerprint` must be FingerprintText
  /// of the genome the encoding was built from.
  void LoadReference(const ReferenceEncodingView& enc,
                     std::uint64_t fingerprint);
  bool HasReference() const { return !ref_buffers_.empty(); }
  /// Length of the loaded reference (0 when none).
  std::int64_t reference_length() const { return ref_length_; }
  /// Content fingerprint of the loaded reference (FingerprintText of the
  /// genome given to LoadReference) — lets callers that hold the text
  /// verify the engine really filters against *their* genome, not a
  /// same-length one loaded earlier.
  std::uint64_t reference_fingerprint() const { return ref_fingerprint_; }
  /// The loaded reference encoding (requires HasReference).  It views
  /// device 0's unified copy, which is host memory, so host filters slice
  /// windows from it without a second copy of the genome.
  ReferenceEncodingView reference_encoding() const;

  /// Candidate mode, step 2: filter candidate mappings of `reads` (each at
  /// most config().read_length).  Candidates index into `reads`.  The
  /// string_view overload lets callers hand a window into an existing read
  /// set without per-batch string copies (the blocking mapper builds its
  /// batch read tables as views).
  FilterRunStats FilterCandidates(const std::vector<std::string>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);
  FilterRunStats FilterCandidates(const std::vector<std::string_view>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);

 private:
  struct DeviceBuffers;

  void EnsurePairBuffers(std::size_t capacity);
  void EnsureCandidateBuffers(std::size_t capacity, std::size_t read_capacity);
  void AllocatePairBuffers(gpusim::Device* dev, DeviceBuffers* b,
                           std::size_t capacity);
  FilterRunStats FilterCandidatesImpl(const std::string_view* reads,
                                      std::size_t read_count,
                                      const std::vector<CandidatePair>&
                                          candidates,
                                      std::vector<PairResult>* results);
  StreamBatchStats RunCandidatesKernel(std::size_t di, DeviceBuffers* b,
                                       std::size_t count);
  void EncodePairsInto(DeviceBuffers* b, const std::string* reads,
                       const std::string* refs, std::size_t count);
  StreamBatchStats RunPairsKernel(gpusim::Device* dev, DeviceBuffers* b,
                                  std::size_t count);

  EngineConfig config_;
  std::vector<gpusim::Device*> devices_;
  SystemPlan plan_;

  std::vector<std::unique_ptr<DeviceBuffers>> buffers_;
  // Reference genome, one unified copy per device (as each GPU needs its
  // own resident copy).
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_buffers_;
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_nmask_buffers_;
  std::int64_t ref_length_ = 0;
  std::uint64_t ref_fingerprint_ = 0;
};

}  // namespace gkgpu

#endif  // GKGPU_CORE_ENGINE_HPP
