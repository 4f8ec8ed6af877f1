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

/// Timings and counters of one streamed batch on one device slot.
struct StreamBatchStats {
  double kernel_seconds = 0.0;    // simulated device time
  double transfer_seconds = 0.0;  // simulated PCIe (prefetch + result fault)
  double readback_seconds = 0.0;  // measured host time copying results out
  std::uint64_t accepted = 0;
  std::uint64_t bypassed = 0;
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
  int device_count() const { return static_cast<int>(devices_.size()); }
  const gpusim::Device& device(int i) const {
    return *devices_[static_cast<std::size_t>(i)];
  }

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

  /// Candidate mode, step 2: filter candidate mappings of `reads` (each at
  /// most config().read_length).  Candidates index into `reads`.  The
  /// string_view overload lets callers hand a window into an existing read
  /// set without per-batch string copies (the blocking mapper and the
  /// paired driver build their batch read tables as views).
  FilterRunStats FilterCandidates(const std::vector<std::string>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);
  FilterRunStats FilterCandidates(const std::vector<std::string_view>& reads,
                                  const std::vector<CandidatePair>& candidates,
                                  std::vector<PairResult>* results);

  // --- Streaming path (driven by src/pipeline/) -------------------------
  //
  // Re-entrant per-device batch filtration: every device owns
  // `slots_per_device` independent buffer sets, so the pipeline can host-
  // encode batch N+1 into one slot while batch N's kernel runs from
  // another (double buffering).  Concurrency contract: EncodePairsSlot may
  // run on any thread for any (device, slot) not currently in use, but all
  // FilterPairsSlot calls for one device must come from a single driver
  // thread (device timelines and unified-memory counters are per-device
  // and unsynchronized, exactly like a CUDA stream).

  /// Allocates the slot buffers.  `batch_capacity` is clamped to the
  /// system plan's pairs-per-batch; returns the per-slot capacity.
  std::size_t PrepareStreaming(std::size_t batch_capacity,
                               int slots_per_device);
  int streaming_slots() const { return streaming_slots_; }

  /// Host preprocessing of one batch into (device, slot): 2-bit encoding
  /// under EncodingActor::kHost, raw character staging under kDevice.
  /// Returns measured host seconds.
  double EncodePairsSlot(int device, int slot, const std::string* reads,
                         const std::string* refs, std::size_t count);

  /// Device stage for a previously encoded slot: prefetch (or demand
  /// migration), kernel launch, and result read-back into out[0..count).
  StreamBatchStats FilterPairsSlot(int device, int slot, std::size_t count,
                                   PairResult* out);

  // Candidate-mode streaming: per-(device, slot) buffers carrying a batch's
  // unique reads (2-bit encoded once) plus its (read, reference-offset)
  // candidates; the kernel slices reference windows straight out of the
  // per-device encoded genome loaded by LoadReference — no per-candidate
  // segment extraction or re-encoding on the host.  Same concurrency
  // contract as the pair-mode slots.

  /// Allocates the candidate slot buffers.  `batch_capacity` bounds the
  /// candidates per batch (clamped to the kernel plan), `read_capacity` the
  /// distinct reads per batch; returns the per-slot candidate capacity.
  std::size_t PrepareCandidateStreaming(std::size_t batch_capacity,
                                        std::size_t read_capacity,
                                        int slots_per_device);
  int candidate_streaming_slots() const { return cand_streaming_slots_; }

  /// Host preprocessing of one candidate batch into (device, slot): encodes
  /// the batch's reads and stages the candidate table.  Returns measured
  /// host seconds.
  double EncodeCandidatesSlot(int device, int slot, const std::string* reads,
                              std::size_t read_count,
                              const CandidatePair* candidates,
                              std::size_t count);

  /// Device stage for a previously encoded candidate slot; requires a
  /// loaded reference.
  StreamBatchStats FilterCandidatesSlot(int device, int slot,
                                        std::size_t count, PairResult* out);

 private:
  struct DeviceBuffers;

  void EnsurePairBuffers(std::size_t capacity);
  void EnsureCandidateBuffers(std::size_t capacity, std::size_t read_capacity);
  void AllocatePairBuffers(gpusim::Device* dev, DeviceBuffers* b,
                           std::size_t capacity);
  void AllocateCandidateBuffers(gpusim::Device* dev, DeviceBuffers* b,
                                std::size_t capacity,
                                std::size_t read_capacity);
  void EncodeCandidatesInto(DeviceBuffers* b, const std::string* reads,
                            std::size_t read_count,
                            const CandidatePair* candidates,
                            std::size_t count);
  FilterRunStats FilterCandidatesImpl(const std::string_view* reads,
                                      std::size_t read_count,
                                      const std::vector<CandidatePair>&
                                          candidates,
                                      std::vector<PairResult>* results);
  StreamBatchStats RunCandidatesKernel(std::size_t di, DeviceBuffers* b,
                                       std::size_t count, PairResult* out);
  void EncodePairsInto(DeviceBuffers* b, const std::string* reads,
                       const std::string* refs, std::size_t count);
  StreamBatchStats RunPairsKernel(gpusim::Device* dev, DeviceBuffers* b,
                                  std::size_t count, PairResult* out);

  EngineConfig config_;
  std::vector<gpusim::Device*> devices_;
  SystemPlan plan_;

  std::vector<std::unique_ptr<DeviceBuffers>> buffers_;
  // Streaming slots: stream_buffers_[device * streaming_slots_ + slot].
  std::vector<std::unique_ptr<DeviceBuffers>> stream_buffers_;
  int streaming_slots_ = 0;
  std::size_t streaming_capacity_ = 0;
  // Candidate-mode streaming slots, indexed the same way.
  std::vector<std::unique_ptr<DeviceBuffers>> cand_stream_buffers_;
  int cand_streaming_slots_ = 0;
  std::size_t cand_streaming_capacity_ = 0;
  std::size_t cand_streaming_read_capacity_ = 0;
  // Reference genome, one unified copy per device (as each GPU needs its
  // own resident copy).
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_buffers_;
  std::vector<std::unique_ptr<gpusim::UnifiedBuffer>> ref_nmask_buffers_;
  std::int64_t ref_length_ = 0;
  std::uint64_t ref_fingerprint_ = 0;
};

}  // namespace gkgpu

#endif  // GKGPU_CORE_ENGINE_HPP
