#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/names.hpp"
#include "util/timer.hpp"

namespace gkgpu {

using gpusim::Device;
using gpusim::LaunchConfig;
using gpusim::UnifiedBuffer;

namespace {

// Folds one device-kernel batch into the filter funnel.  The simulated
// GPU always runs the GateKeeper kernel, so the filter label is fixed
// and the tier distinguishes this path from the host SIMD tiers.
void RecordEngineFunnel(std::uint64_t pairs, std::uint64_t accepted,
                        std::uint64_t bypassed) {
  if (!obs::Enabled() || pairs == 0) return;
  obs::FilterInput().Inc(pairs);
  obs::FilterAccepts("GateKeeper-GPU", "gpusim").Inc(accepted);
  obs::FilterRejects("GateKeeper-GPU", "gpusim").Inc(pairs - accepted);
  if (bypassed > 0) {
    obs::FilterBypasses("GateKeeper-GPU", "gpusim").Inc(bypassed);
  }
}

}  // namespace

/// Per-device unified-memory working set (Sec. 3.2 resource allocation).
/// The two modes share reads_enc, bypass and results at different sizes,
/// so each mode's Ensure step sizes every buffer it uses (EnsureBuffer).
struct GateKeeperGpuEngine::DeviceBuffers {
  // Pair mode, host-encoded; candidate mode's read table and its bypass.
  std::unique_ptr<UnifiedBuffer> reads_enc;
  std::unique_ptr<UnifiedBuffer> refs_enc;
  std::unique_ptr<UnifiedBuffer> bypass;
  // Pair mode, device-encoded (raw characters cross the bus instead).
  std::unique_ptr<UnifiedBuffer> raw_reads;
  std::unique_ptr<UnifiedBuffer> raw_refs;
  // Candidate mode.
  std::unique_ptr<UnifiedBuffer> cand;
  // Shared.
  std::unique_ptr<UnifiedBuffer> results;
};

GateKeeperGpuEngine::GateKeeperGpuEngine(EngineConfig config,
                                         std::vector<Device*> devices)
    : config_(config), devices_(std::move(devices)) {
  if (devices_.empty()) {
    throw std::invalid_argument("GateKeeperGpuEngine: no devices");
  }
  plan_ = ConfigureSystem(*devices_.front(), config_);
  buffers_.resize(devices_.size());
  for (auto& b : buffers_) b = std::make_unique<DeviceBuffers>();
}

GateKeeperGpuEngine::~GateKeeperGpuEngine() = default;

namespace {

struct TransferLedger {
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t faults = 0;

  static TransferLedger Snapshot(const std::vector<Device*>& devices) {
    TransferLedger t;
    for (const Device* d : devices) {
      t.h2d += d->stats().h2d_bytes;
      t.d2h += d->stats().d2h_bytes;
      t.faults += d->stats().page_faults;
    }
    return t;
  }
};

/// Prefetches the given input buffers ahead of a kernel, one per stream as
/// the paper does, so the link time of a round is the max, not the sum.
double PrefetchAll(std::initializer_list<UnifiedBuffer*> buffers) {
  double max_s = 0.0;
  for (UnifiedBuffer* b : buffers) {
    if (b == nullptr) continue;
    b->Advise(gpusim::MemAdvice::kPreferredLocationDevice);
    max_s = std::max(max_s, b->PrefetchToDevice());
  }
  return max_s;
}

/// Allocates `*buffer` on `dev` unless it already holds `bytes`.
void EnsureBuffer(Device* dev, std::unique_ptr<UnifiedBuffer>* buffer,
                  std::size_t bytes) {
  if (*buffer == nullptr || (*buffer)->bytes() < bytes) {
    *buffer = dev->AllocateUnified(bytes);
  }
}

double FaultAll(std::initializer_list<UnifiedBuffer*> buffers) {
  double sum_s = 0.0;
  for (UnifiedBuffer* b : buffers) {
    if (b != nullptr) sum_s += b->FaultToDevice();
  }
  return sum_s;
}

/// Runs fn(di) for every device concurrently — one host thread per device,
/// the way one CPU thread feeds each GPU — and returns the slowest
/// duration (the wall-clock cost of the concurrent phase).
double ConcurrentPerDevice(std::size_t ndev,
                           const std::function<void(std::size_t)>& fn) {
  std::vector<double> seconds(ndev, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(ndev);
  for (std::size_t di = 0; di < ndev; ++di) {
    threads.emplace_back([&, di] {
      WallTimer t;
      fn(di);
      seconds[di] = t.Seconds();
    });
  }
  for (auto& t : threads) t.join();
  double max_s = 0.0;
  for (const double s : seconds) max_s = std::max(max_s, s);
  return max_s;
}

}  // namespace

void GateKeeperGpuEngine::EnsurePairBuffers(std::size_t capacity) {
  const std::size_t enc_bytes =
      capacity * static_cast<std::size_t>(EncodedWords(config_.read_length)) *
      sizeof(Word);
  const std::size_t raw_bytes =
      capacity * static_cast<std::size_t>(config_.read_length);
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    Device* dev = devices_[di];
    DeviceBuffers& b = *buffers_[di];
    if (config_.encoding == EncodingActor::kHost) {
      EnsureBuffer(dev, &b.reads_enc, enc_bytes);
      EnsureBuffer(dev, &b.refs_enc, enc_bytes);
      EnsureBuffer(dev, &b.bypass, capacity);
    } else {
      EnsureBuffer(dev, &b.raw_reads, raw_bytes);
      EnsureBuffer(dev, &b.raw_refs, raw_bytes);
    }
    EnsureBuffer(dev, &b.results, capacity * sizeof(PairResult));
  }
}

/// Host preprocessing of `count` pairs into a buffer set: the encode/copy
/// work one CPU thread performs per device slice of a FilterPairs round.
void GateKeeperGpuEngine::EncodePairsInto(DeviceBuffers* b,
                                          const std::string* reads,
                                          const std::string* refs,
                                          std::size_t count) {
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  const std::size_t len = static_cast<std::size_t>(config_.read_length);
  if (config_.encoding == EncodingActor::kHost) {
    Word* renc = b->reads_enc->as<Word>();
    Word* genc = b->refs_enc->as<Word>();
    std::uint8_t* byp = b->bypass->as<std::uint8_t>();
    for (std::size_t i = 0; i < count; ++i) {
      const bool rn = EncodeSequence(reads[i], renc + i * words);
      const bool gn = EncodeSequence(refs[i], genc + i * words);
      byp[i] = (rn || gn) ? 1 : 0;
    }
    b->reads_enc->MarkHostResident();
    b->refs_enc->MarkHostResident();
    b->bypass->MarkHostResident();
  } else {
    char* rr = b->raw_reads->as<char>();
    char* gg = b->raw_refs->as<char>();
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(rr + i * len, reads[i].data(), len);
      std::memcpy(gg + i * len, refs[i].data(), len);
    }
    b->raw_reads->MarkHostResident();
    b->raw_refs->MarkHostResident();
  }
  b->results->MarkHostResident();
}

/// Device stage for one encoded buffer set: advice + prefetch (or demand
/// migration), kernel launch and result migration.  FilterPairs reads all
/// devices' results back concurrently afterwards, so the returned counts
/// are 0.
StreamBatchStats GateKeeperGpuEngine::RunPairsKernel(Device* dev,
                                                     DeviceBuffers* b,
                                                     std::size_t count) {
  StreamBatchStats st;
  if (count == 0) return st;
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  double prefetch_s = 0.0;
  double fault_s = 0.0;
  if (dev->props().supports_prefetch()) {
    prefetch_s = config_.encoding == EncodingActor::kHost
                     ? PrefetchAll({b->reads_enc.get(), b->refs_enc.get(),
                                    b->bypass.get(), b->results.get()})
                     : PrefetchAll({b->raw_reads.get(), b->raw_refs.get(),
                                    b->results.get()});
  } else {
    fault_s = config_.encoding == EncodingActor::kHost
                  ? FaultAll({b->reads_enc.get(), b->refs_enc.get(),
                              b->bypass.get(), b->results.get()})
                  : FaultAll({b->raw_reads.get(), b->raw_refs.get(),
                              b->results.get()});
  }

  const LaunchConfig cfg{
      static_cast<std::int64_t>((count + plan_.threads_per_block - 1) /
                                plan_.threads_per_block),
      plan_.threads_per_block};
  // The kernel is a thin view over the buffer set's unified-memory PairBlock;
  // the block's shape (encoded vs raw) selects the encoding actor.
  PairBlockKernel kernel;
  kernel.block.size = count;
  kernel.block.length = config_.read_length;
  kernel.block.words_per_seq = static_cast<int>(words);
  if (config_.encoding == EncodingActor::kHost) {
    kernel.block.reads_enc = b->reads_enc->as<Word>();
    kernel.block.refs_enc = b->refs_enc->as<Word>();
    kernel.block.bypass = b->bypass->as<std::uint8_t>();
  } else {
    kernel.block.raw_reads = b->raw_reads->as<char>();
    kernel.block.raw_refs = b->raw_refs->as<char>();
  }
  kernel.results = b->results->as<PairResult>();
  kernel.e = config_.error_threshold;
  kernel.params = config_.algorithm;
  st.kernel_seconds = dev->Launch(cfg, plan_.kernel_cost, fault_s, kernel);
  b->results->MarkDeviceResident();
  const double d2h_s = b->results->FaultToHost();
  st.transfer_seconds = prefetch_s + d2h_s;
  return st;
}

/// Device stage for one encoded candidate buffer set: the kernel extracts
/// each candidate's reference window from the device-resident encoded
/// genome (ref_buffers_), so only reads, the candidate table and results
/// cross the bus per batch.
StreamBatchStats GateKeeperGpuEngine::RunCandidatesKernel(std::size_t di,
                                                          DeviceBuffers* b,
                                                          std::size_t count) {
  StreamBatchStats st;
  if (count == 0) return st;
  assert(HasReference());
  Device* dev = devices_[di];
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));

  double prefetch_s = 0.0;
  double fault_s = 0.0;
  if (dev->props().supports_prefetch()) {
    prefetch_s = PrefetchAll(
        {b->reads_enc.get(), b->bypass.get(), b->cand.get(), b->results.get()});
  } else {
    fault_s = FaultAll({b->reads_enc.get(), b->bypass.get(), b->cand.get(),
                        b->results.get(), ref_buffers_[di].get(),
                        ref_nmask_buffers_[di].get()});
  }

  const LaunchConfig cfg{
      static_cast<std::int64_t>((count + plan_.threads_per_block - 1) /
                                plan_.threads_per_block),
      plan_.threads_per_block};
  PairBlockKernel kernel;
  kernel.block.size = count;
  kernel.block.length = config_.read_length;
  kernel.block.words_per_seq = static_cast<int>(words);
  kernel.block.reads_enc = b->reads_enc->as<Word>();
  kernel.block.bypass = b->bypass->as<std::uint8_t>();
  kernel.block.candidates = b->cand->as<CandidatePair>();
  kernel.block.ref_words = ref_buffers_[di]->as<Word>();
  kernel.block.ref_n_mask = ref_nmask_buffers_[di]->as<Word>();
  kernel.block.ref_len = ref_length_;
  kernel.results = b->results->as<PairResult>();
  kernel.e = config_.error_threshold;
  kernel.params = config_.algorithm;
  st.kernel_seconds = dev->Launch(cfg, plan_.kernel_cost, fault_s, kernel);
  b->results->MarkDeviceResident();
  const double d2h_s = b->results->FaultToHost();
  st.transfer_seconds = prefetch_s + d2h_s;
  return st;
}

FilterRunStats GateKeeperGpuEngine::FilterPairs(
    const std::vector<std::string>& reads, const std::vector<std::string>& refs,
    std::vector<PairResult>* results) {
  if (reads.size() != refs.size()) {
    throw std::invalid_argument(
        "GateKeeperGpuEngine::FilterPairs: " + std::to_string(reads.size()) +
        " reads but " + std::to_string(refs.size()) + " references");
  }
  for (std::size_t i = 0; i < reads.size(); ++i) {
    CheckSequenceLength(reads[i].size(), config_.read_length, i,
                        "GateKeeperGpuEngine::FilterPairs");
    CheckSequenceLength(refs[i].size(), config_.read_length, i,
                        "GateKeeperGpuEngine::FilterPairs");
  }
  const std::size_t n = reads.size();
  results->assign(n, PairResult{});
  FilterRunStats stats;
  stats.pairs = n;
  if (n == 0) return stats;

  const std::size_t ndev = devices_.size();
  const std::size_t per_device_cap = plan_.pairs_per_batch;
  const std::size_t even_split = (n + ndev - 1) / ndev;
  const std::size_t slice_cap = std::min(per_device_cap, even_split);
  EnsurePairBuffers(slice_cap);

  const TransferLedger before = TransferLedger::Snapshot(devices_);
  double device_pipeline_seconds = 0.0;

  struct Slice {
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::size_t offset = 0;
  while (offset < n) {
    // Equal batches per device (Sec. 3.1): carve this round's slices.
    std::vector<Slice> slices(ndev);
    for (std::size_t di = 0; di < ndev && offset < n; ++di) {
      slices[di] = {offset, std::min(slice_cap, n - offset)};
      offset += slices[di].count;
    }

    // --- Host preprocessing: one CPU thread feeds each device, serial
    // within a slice (the paper's encode/copy cost is host-sequential per
    // device, which is exactly why the encoding actor matters). ---
    const double prep_s = ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      if (s.count == 0) return;
      EncodePairsInto(buffers_[di].get(), reads.data() + s.begin,
                      refs.data() + s.begin, s.count);
    });
    if (config_.encoding == EncodingActor::kHost) {
      stats.host_encode_seconds += prep_s;
    } else {
      stats.host_copy_seconds += prep_s;
    }

    // --- Per device: advice + prefetch (or demand migration), kernel
    // launch, result migration.  Kernels execute sequentially here (they
    // share the physical host), but the simulated timeline treats devices
    // as parallel: the round's kernel time is the per-device maximum. ---
    double round_kt = 0.0;
    double round_transfer = 0.0;
    for (std::size_t di = 0; di < ndev; ++di) {
      const Slice s = slices[di];
      if (s.count == 0) continue;
      const StreamBatchStats st = RunPairsKernel(
          devices_[di], buffers_[di].get(), s.count);
      round_kt = std::max(round_kt, st.kernel_seconds);
      round_transfer = std::max(round_transfer, st.transfer_seconds);
    }

    // --- Results read-out: concurrent per device, like the prep. ---
    std::vector<std::uint64_t> acc(ndev, 0);
    std::vector<std::uint64_t> byp_count(ndev, 0);
    const double copy_s = ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      if (s.count == 0) return;
      const PairResult* res = buffers_[di]->results->as<PairResult>();
      for (std::size_t i = 0; i < s.count; ++i) {
        const PairResult r = res[i];
        (*results)[s.begin + i] = r;
        acc[di] += r.accept;
        byp_count[di] += r.bypassed;
      }
    });
    stats.host_copy_seconds += copy_s;
    for (std::size_t di = 0; di < ndev; ++di) {
      stats.accepted += acc[di];
      stats.rejected += slices[di].count - acc[di];
      stats.bypassed += byp_count[di];
      RecordEngineFunnel(slices[di].count, acc[di], byp_count[di]);
    }

    stats.kernel_seconds += round_kt;
    stats.transfer_seconds += round_transfer;
    // Prefetch-capable devices overlap the next round's transfers with the
    // current kernel; without prefetch the migration stalls already sit
    // inside the kernel time.
    device_pipeline_seconds +=
        devices_.front()->props().supports_prefetch()
            ? std::max(round_kt, round_transfer)
            : round_kt + round_transfer;
    ++stats.batches;
  }

  const TransferLedger after = TransferLedger::Snapshot(devices_);
  stats.h2d_bytes = after.h2d - before.h2d;
  stats.d2h_bytes = after.d2h - before.d2h;
  stats.page_faults = after.faults - before.faults;
  stats.filter_seconds = stats.host_encode_seconds + stats.host_copy_seconds +
                         device_pipeline_seconds;
  return stats;
}

void GateKeeperGpuEngine::LoadReference(std::string_view genome) {
  // Multithreaded host encoding of the reference (Sec. 3.5, Box R of the
  // workflow figure), then one resident copy per device.
  const ReferenceEncoding enc =
      EncodeReference(genome, &devices_.front()->pool());
  LoadReference(enc.view());
}

void GateKeeperGpuEngine::LoadReference(const ReferenceEncodingView& enc) {
  ref_length_ = enc.length;
  ref_buffers_.clear();
  ref_nmask_buffers_.clear();
  for (Device* dev : devices_) {
    auto words = dev->AllocateUnified(enc.words.size() * sizeof(Word));
    auto nmask = dev->AllocateUnified(enc.n_mask.size() * sizeof(Word));
    std::memcpy(words->data(), enc.words.data(), words->bytes());
    std::memcpy(nmask->data(), enc.n_mask.data(), nmask->bytes());
    words->Advise(gpusim::MemAdvice::kPreferredLocationDevice);
    nmask->Advise(gpusim::MemAdvice::kPreferredLocationDevice);
    if (dev->props().supports_prefetch()) {
      words->PrefetchToDevice();
      nmask->PrefetchToDevice();
    }
    ref_buffers_.push_back(std::move(words));
    ref_nmask_buffers_.push_back(std::move(nmask));
  }
}

void GateKeeperGpuEngine::EnsureCandidateBuffers(std::size_t capacity,
                                                 std::size_t read_capacity) {
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    DeviceBuffers& b = *buffers_[di];
    Device* dev = devices_[di];
    EnsureBuffer(dev, &b.reads_enc, read_capacity * words * sizeof(Word));
    EnsureBuffer(dev, &b.bypass, read_capacity);
    EnsureBuffer(dev, &b.cand, capacity * sizeof(CandidatePair));
    EnsureBuffer(dev, &b.results, capacity * sizeof(PairResult));
  }
}

FilterRunStats GateKeeperGpuEngine::FilterCandidates(
    const std::vector<std::string>& reads,
    const std::vector<CandidatePair>& candidates,
    std::vector<PairResult>* results) {
  std::vector<std::string_view> views(reads.begin(), reads.end());
  return FilterCandidatesImpl(views.data(), views.size(), candidates, results);
}

FilterRunStats GateKeeperGpuEngine::FilterCandidates(
    const std::vector<std::string_view>& reads,
    const std::vector<CandidatePair>& candidates,
    std::vector<PairResult>* results) {
  return FilterCandidatesImpl(reads.data(), reads.size(), candidates, results);
}

FilterRunStats GateKeeperGpuEngine::FilterCandidatesImpl(
    const std::string_view* reads, std::size_t read_count,
    const std::vector<CandidatePair>& candidates,
    std::vector<PairResult>* results) {
  assert(HasReference());
  for (std::size_t i = 0; i < read_count; ++i) {
    CheckSequenceLength(reads[i].size(), config_.read_length, i,
                        "GateKeeperGpuEngine::FilterCandidates");
  }
  const std::size_t n = candidates.size();
  results->assign(n, PairResult{});
  FilterRunStats stats;
  stats.pairs = n;
  if (n == 0) return stats;

  const std::size_t ndev = devices_.size();
  const std::size_t even_split = (n + ndev - 1) / ndev;
  const std::size_t slice_cap = std::min(plan_.pairs_per_batch, even_split);
  EnsureCandidateBuffers(slice_cap, read_count);

  const TransferLedger before = TransferLedger::Snapshot(devices_);
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  double device_pipeline_seconds = 0.0;

  // Encode the read buffer once per device (a read is copied to the GPU
  // once for all of its candidate segments); one host thread per device.
  stats.host_encode_seconds += ConcurrentPerDevice(ndev, [&](std::size_t di) {
    DeviceBuffers& b = *buffers_[di];
    Word* renc = b.reads_enc->as<Word>();
    std::uint8_t* byp = b.bypass->as<std::uint8_t>();
    for (std::size_t i = 0; i < read_count; ++i) {
      byp[i] = EncodeSequence(reads[i], renc + i * words) ? 1 : 0;
    }
    b.reads_enc->MarkHostResident();
    b.bypass->MarkHostResident();
  });

  struct Slice {
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::size_t offset = 0;
  while (offset < n) {
    std::vector<Slice> slices(ndev);
    for (std::size_t di = 0; di < ndev && offset < n; ++di) {
      slices[di] = {offset, std::min(slice_cap, n - offset)};
      offset += slices[di].count;
    }

    stats.host_copy_seconds += ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      if (s.count == 0) return;
      DeviceBuffers& b = *buffers_[di];
      std::memcpy(b.cand->data(), candidates.data() + s.begin,
                  s.count * sizeof(CandidatePair));
      b.cand->MarkHostResident();
      b.results->MarkHostResident();
    });

    double round_kt = 0.0;
    double round_transfer = 0.0;
    for (std::size_t di = 0; di < ndev; ++di) {
      const Slice s = slices[di];
      if (s.count == 0) continue;
      const StreamBatchStats st =
          RunCandidatesKernel(di, buffers_[di].get(), s.count);
      round_kt = std::max(round_kt, st.kernel_seconds);
      round_transfer = std::max(round_transfer, st.transfer_seconds);
    }

    std::vector<std::uint64_t> acc(ndev, 0);
    std::vector<std::uint64_t> byp_count(ndev, 0);
    stats.host_copy_seconds += ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      if (s.count == 0) return;
      const PairResult* res = buffers_[di]->results->as<PairResult>();
      for (std::size_t i = 0; i < s.count; ++i) {
        const PairResult r = res[i];
        (*results)[s.begin + i] = r;
        acc[di] += r.accept;
        byp_count[di] += r.bypassed;
      }
    });
    for (std::size_t di = 0; di < ndev; ++di) {
      stats.accepted += acc[di];
      stats.rejected += slices[di].count - acc[di];
      stats.bypassed += byp_count[di];
      RecordEngineFunnel(slices[di].count, acc[di], byp_count[di]);
    }

    stats.kernel_seconds += round_kt;
    stats.transfer_seconds += round_transfer;
    device_pipeline_seconds +=
        devices_.front()->props().supports_prefetch()
            ? std::max(round_kt, round_transfer)
            : round_kt + round_transfer;
    ++stats.batches;
  }

  const TransferLedger after = TransferLedger::Snapshot(devices_);
  stats.h2d_bytes = after.h2d - before.h2d;
  stats.d2h_bytes = after.d2h - before.d2h;
  stats.page_faults = after.faults - before.faults;
  stats.filter_seconds = stats.host_encode_seconds + stats.host_copy_seconds +
                         device_pipeline_seconds;
  return stats;
}

}  // namespace gkgpu
