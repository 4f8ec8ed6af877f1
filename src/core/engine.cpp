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

/// Per-device unified-memory working set (Sec. 3.2 resource allocation).
/// The two modes share reads_enc, bypass and results at different sizes,
/// so each mode sizes every buffer it uses (EnsureBuffer) on every call.
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

/// Allocates `*buffer` on `dev` unless it already holds `bytes`.
void EnsureBuffer(Device* dev, std::unique_ptr<UnifiedBuffer>* buffer,
                  std::size_t bytes) {
  if (*buffer == nullptr || (*buffer)->bytes() < bytes) {
    *buffer = dev->AllocateUnified(bytes);
  }
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

std::size_t GateKeeperGpuEngine::SliceCapacity(std::size_t n) const {
  const std::size_t ndev = devices_.size();
  return std::min(plan_.pairs_per_batch, (n + ndev - 1) / ndev);
}

StreamBatchStats GateKeeperGpuEngine::Launch(
    std::size_t di, const PairBlock& block,
    const std::vector<UnifiedBuffer*>& inputs) {
  Device* dev = devices_[di];
  UnifiedBuffer* results = buffers_[di]->results.get();
  StreamBatchStats st;
  // Prefetch-capable devices move each input on its own stream, so the
  // link time is the slowest one; the others stall the kernel on each
  // buffer in turn.
  const bool prefetch = dev->props().supports_prefetch();
  double fault_s = 0.0;
  for (UnifiedBuffer* b : inputs) {
    if (prefetch) {
      b->Advise(gpusim::MemAdvice::kPreferredLocationDevice);
      st.transfer_seconds =
          std::max(st.transfer_seconds, b->PrefetchToDevice());
    } else {
      fault_s += b->FaultToDevice();
    }
  }
  const int threads = plan_.threads_per_block;
  const LaunchConfig cfg{
      static_cast<std::int64_t>((block.size + threads - 1) / threads),
      threads};
  st.kernel_seconds =
      dev->Launch(cfg, plan_.kernel_cost, fault_s,
                  PairBlockKernel{block, results->as<PairResult>(),
                                  config_.error_threshold});
  results->MarkDeviceResident();
  st.transfer_seconds += results->FaultToHost();
  return st;
}

void GateKeeperGpuEngine::RunRounds(std::size_t capacity,
                                    const std::vector<DeviceInput>& inputs,
                                    const Prepare& prepare,
                                    double FilterRunStats::*prepare_seconds,
                                    FilterRunStats* stats,
                                    std::vector<PairResult>* results) {
  const std::size_t n = results->size();
  const std::size_t ndev = devices_.size();
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
      slices[di] = {offset, std::min(capacity, n - offset)};
      offset += slices[di].count;
    }

    // --- Host preprocessing: one CPU thread feeds each device, serial
    // within a slice (the paper's encode/copy cost is host-sequential per
    // device, which is exactly why the encoding actor matters). ---
    stats->*prepare_seconds += ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      if (s.count == 0) return;
      prepare(di, s.begin, s.count);
      buffers_[di]->results->MarkHostResident();
    });

    // --- Per device: one launch.  Kernels execute sequentially here (they
    // share the physical host), but the simulated timeline treats devices
    // as parallel: the round's kernel time is the per-device maximum. ---
    double round_kt = 0.0;
    double round_transfer = 0.0;
    for (std::size_t di = 0; di < ndev; ++di) {
      if (slices[di].count == 0) continue;
      PairBlock block = inputs[di].block;
      block.size = slices[di].count;
      block.length = config_.read_length;
      block.words_per_seq = EncodedWords(config_.read_length);
      const StreamBatchStats st = Launch(di, block, inputs[di].buffers);
      round_kt = std::max(round_kt, st.kernel_seconds);
      round_transfer = std::max(round_transfer, st.transfer_seconds);
    }

    // --- Results read-out: concurrent per device, like the prep. ---
    std::vector<std::uint64_t> acc(ndev, 0);
    std::vector<std::uint64_t> byp(ndev, 0);
    stats->host_copy_seconds += ConcurrentPerDevice(ndev, [&](std::size_t di) {
      const Slice s = slices[di];
      const PairResult* res = buffers_[di]->results->as<PairResult>();
      for (std::size_t i = 0; i < s.count; ++i) {
        const PairResult r = res[i];
        (*results)[s.begin + i] = r;
        acc[di] += r.accept;
        byp[di] += r.bypassed;
      }
    });
    for (std::size_t di = 0; di < ndev; ++di) {
      stats->accepted += acc[di];
      stats->rejected += slices[di].count - acc[di];
      stats->bypassed += byp[di];
    }

    stats->kernel_seconds += round_kt;
    stats->transfer_seconds += round_transfer;
    // Prefetch-capable devices overlap the next round's transfers with the
    // current kernel; without prefetch the migration stalls already sit
    // inside the kernel time.
    device_pipeline_seconds +=
        devices_.front()->props().supports_prefetch()
            ? std::max(round_kt, round_transfer)
            : round_kt + round_transfer;
    ++stats->batches;
  }

  stats->filter_seconds = stats->host_encode_seconds +
                          stats->host_copy_seconds + device_pipeline_seconds;
  // The filter funnel: the simulated GPU always runs the GateKeeper
  // kernel, so the filter label is fixed and the tier sets this path apart
  // from the host SIMD tiers.
  if (obs::Enabled() && n > 0) {
    obs::FilterInput().Inc(n);
    obs::FilterAccepts("GateKeeper-GPU", "gpusim").Inc(stats->accepted);
    obs::FilterRejects("GateKeeper-GPU", "gpusim").Inc(stats->rejected);
    if (stats->bypassed > 0) {
      obs::FilterBypasses("GateKeeper-GPU", "gpusim").Inc(stats->bypassed);
    }
  }
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

  const bool host = config_.encoding == EncodingActor::kHost;
  const std::size_t capacity = SliceCapacity(n);
  const std::size_t len = static_cast<std::size_t>(config_.read_length);
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  std::vector<DeviceInput> inputs(devices_.size());
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    Device* dev = devices_[di];
    DeviceBuffers& b = *buffers_[di];
    PairBlock& block = inputs[di].block;
    if (host) {
      EnsureBuffer(dev, &b.reads_enc, capacity * words * sizeof(Word));
      EnsureBuffer(dev, &b.refs_enc, capacity * words * sizeof(Word));
      EnsureBuffer(dev, &b.bypass, capacity);
      EnsureBuffer(dev, &b.results, capacity * sizeof(PairResult));
      block.reads_enc = b.reads_enc->as<Word>();
      block.refs_enc = b.refs_enc->as<Word>();
      block.bypass = b.bypass->as<std::uint8_t>();
      inputs[di].buffers = {b.reads_enc.get(), b.refs_enc.get(),
                            b.bypass.get(), b.results.get()};
    } else {
      // The block's raw shape makes the kernel encode on the device.
      EnsureBuffer(dev, &b.raw_reads, capacity * len);
      EnsureBuffer(dev, &b.raw_refs, capacity * len);
      EnsureBuffer(dev, &b.results, capacity * sizeof(PairResult));
      block.raw_reads = b.raw_reads->as<char>();
      block.raw_refs = b.raw_refs->as<char>();
      inputs[di].buffers = {b.raw_reads.get(), b.raw_refs.get(),
                            b.results.get()};
    }
  }

  const auto prepare = [&](std::size_t di, std::size_t begin,
                           std::size_t count) {
    DeviceBuffers& b = *buffers_[di];
    if (host) {
      Word* renc = b.reads_enc->as<Word>();
      Word* genc = b.refs_enc->as<Word>();
      std::uint8_t* byp = b.bypass->as<std::uint8_t>();
      for (std::size_t i = 0; i < count; ++i) {
        const bool rn = EncodeSequence(reads[begin + i], renc + i * words);
        const bool gn = EncodeSequence(refs[begin + i], genc + i * words);
        byp[i] = (rn || gn) ? 1 : 0;
      }
      b.reads_enc->MarkHostResident();
      b.refs_enc->MarkHostResident();
      b.bypass->MarkHostResident();
    } else {
      char* rr = b.raw_reads->as<char>();
      char* gg = b.raw_refs->as<char>();
      for (std::size_t i = 0; i < count; ++i) {
        std::memcpy(rr + i * len, reads[begin + i].data(), len);
        std::memcpy(gg + i * len, refs[begin + i].data(), len);
      }
      b.raw_reads->MarkHostResident();
      b.raw_refs->MarkHostResident();
    }
  };
  RunRounds(capacity, inputs, prepare,
            host ? &FilterRunStats::host_encode_seconds
                 : &FilterRunStats::host_copy_seconds,
            &stats, results);
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

FilterRunStats GateKeeperGpuEngine::FilterCandidates(
    const std::vector<std::string>& reads,
    const std::vector<CandidatePair>& candidates,
    std::vector<PairResult>* results) {
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  return FilterCandidates(views, candidates, results);
}

FilterRunStats GateKeeperGpuEngine::FilterCandidates(
    const std::vector<std::string_view>& reads,
    const std::vector<CandidatePair>& candidates,
    std::vector<PairResult>* results) {
  assert(HasReference());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    CheckSequenceLength(reads[i].size(), config_.read_length, i,
                        "GateKeeperGpuEngine::FilterCandidates");
  }
  const std::size_t n = candidates.size();
  results->assign(n, PairResult{});
  FilterRunStats stats;
  stats.pairs = n;
  if (n == 0) return stats;

  // The kernel slices each candidate's window out of the device-resident
  // genome, so only reads, candidates and results cross the bus per call:
  // prefetching the genome moves nothing, and it faults in only once.
  const std::size_t capacity = SliceCapacity(n);
  const std::size_t words =
      static_cast<std::size_t>(EncodedWords(config_.read_length));
  std::vector<DeviceInput> inputs(devices_.size());
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    Device* dev = devices_[di];
    DeviceBuffers& b = *buffers_[di];
    EnsureBuffer(dev, &b.reads_enc, reads.size() * words * sizeof(Word));
    EnsureBuffer(dev, &b.bypass, reads.size());
    EnsureBuffer(dev, &b.cand, capacity * sizeof(CandidatePair));
    EnsureBuffer(dev, &b.results, capacity * sizeof(PairResult));
    PairBlock& block = inputs[di].block;
    block.reads_enc = b.reads_enc->as<Word>();
    block.bypass = b.bypass->as<std::uint8_t>();
    block.candidates = b.cand->as<CandidatePair>();
    block.ref_words = ref_buffers_[di]->as<Word>();
    block.ref_n_mask = ref_nmask_buffers_[di]->as<Word>();
    block.ref_len = ref_length_;
    inputs[di].buffers = {b.reads_enc.get(),      b.bypass.get(),
                          b.cand.get(),           b.results.get(),
                          ref_buffers_[di].get(), ref_nmask_buffers_[di].get()};
  }

  // Encode the read table once per device (a read is copied to the GPU
  // once for all of its candidate segments); one host thread per device.
  stats.host_encode_seconds = ConcurrentPerDevice(
      devices_.size(), [&](std::size_t di) {
        DeviceBuffers& b = *buffers_[di];
        Word* renc = b.reads_enc->as<Word>();
        std::uint8_t* byp = b.bypass->as<std::uint8_t>();
        for (std::size_t i = 0; i < reads.size(); ++i) {
          byp[i] = EncodeSequence(reads[i], renc + i * words) ? 1 : 0;
        }
        b.reads_enc->MarkHostResident();
        b.bypass->MarkHostResident();
      });
  const auto prepare = [&](std::size_t di, std::size_t begin,
                           std::size_t count) {
    UnifiedBuffer& cand = *buffers_[di]->cand;
    std::memcpy(cand.data(), candidates.data() + begin,
                count * sizeof(CandidatePair));
    cand.MarkHostResident();
  };
  RunRounds(capacity, inputs, prepare, &FilterRunStats::host_copy_seconds,
            &stats, results);
  return stats;
}

}  // namespace gkgpu
