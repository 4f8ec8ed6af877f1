#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "encode/revcomp.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/fingerprint.hpp"
#include "util/threadname.hpp"
#include "util/timer.hpp"

namespace gkgpu::pipeline {

namespace {

/// A batch whose pairs sit encoded in a reserved device slot.
struct EncodedMsg {
  PairBatch batch;
  int slot = 0;
};

}  // namespace

StreamingPipeline::StreamingPipeline(GateKeeperGpuEngine* engine,
                                     PipelineConfig config)
    : engine_(engine), config_(config) {
  config_.batch_size = std::max<std::size_t>(1, config_.batch_size);
  config_.queue_depth = std::max<std::size_t>(1, config_.queue_depth);
  config_.encode_workers = std::max(1, config_.encode_workers);
  config_.verify_workers = std::max(1, config_.verify_workers);
  config_.slots_per_device = std::max(1, config_.slots_per_device);

  const bool cand_mode = !config_.reference_text.empty();
  if (cand_mode) {
    // Content check, not just length: an engine reused across same-length
    // genomes would otherwise silently filter against the wrong one.
    const std::uint64_t fp = config_.reference_fingerprint != 0
                                 ? config_.reference_fingerprint
                                 : FingerprintText(config_.reference_text);
    if (!engine_->HasReference() ||
        engine_->reference_length() !=
            static_cast<std::int64_t>(config_.reference_text.size()) ||
        engine_->reference_fingerprint() != fp) {
      throw std::invalid_argument(
          "pipeline: candidate mode requires the engine's reference to be "
          "loaded from the configured reference text");
    }
  }

  // Slot buffers are provisioned for the largest batch the run can
  // produce; the engine clamps the request to its kernel plan and the
  // effective capacity is published back through config().batch_size.
  std::size_t capacity_request = config_.batch_size;
  if (config_.adaptive) {
    AdaptiveBatcherConfig& a = config_.adaptive_config;
    a.min_size = std::max<std::size_t>(1, a.min_size);
    a.max_size = std::max(a.min_size, a.max_size);
    a.initial = a.initial == 0 ? config_.batch_size : a.initial;
    a.initial = std::clamp(a.initial, a.min_size, a.max_size);
    capacity_request = a.max_size;
  }
  const std::size_t capacity =
      cand_mode ? engine_->PrepareCandidateStreaming(capacity_request,
                                                     capacity_request,
                                                     config_.slots_per_device)
                : engine_->PrepareStreaming(capacity_request,
                                            config_.slots_per_device);
  config_.batch_size = capacity;
  if (config_.adaptive) {
    AdaptiveBatcherConfig& a = config_.adaptive_config;
    a.max_size = std::min(a.max_size, capacity);
    a.min_size = std::min(a.min_size, a.max_size);
    a.initial = std::clamp(a.initial, a.min_size, a.max_size);
  }
}

PipelineStats StreamingPipeline::Run(const BatchSource& source,
                                     const BatchSink& sink) {
  const int ndev = engine_->device_count();
  const std::size_t capacity = config_.batch_size;
  const bool cand_mode = !config_.reference_text.empty();
  const std::int64_t ref_len =
      cand_mode ? static_cast<std::int64_t>(config_.reference_text.size())
                : 0;
  const int verify_k = config_.verify_threshold >= 0
                           ? config_.verify_threshold
                           : engine_->config().error_threshold;

  PipelineStats stats;
  WallTimer run_timer;

  // --- Queues -----------------------------------------------------------
  BoundedQueue<PairBatch> q_in(config_.queue_depth);
  std::vector<std::unique_ptr<BoundedQueue<int>>> q_free;
  std::vector<std::unique_ptr<BoundedQueue<EncodedMsg>>> q_ready;
  for (int d = 0; d < ndev; ++d) {
    q_free.push_back(std::make_unique<BoundedQueue<int>>(
        static_cast<std::size_t>(config_.slots_per_device)));
    q_ready.push_back(std::make_unique<BoundedQueue<EncodedMsg>>(
        static_cast<std::size_t>(config_.slots_per_device)));
    for (int s = 0; s < config_.slots_per_device; ++s) q_free[d]->Push(s);
  }
  BoundedQueue<PairBatch> q_filtered(config_.queue_depth);
  BoundedQueue<PairBatch> q_done(config_.queue_depth);

  // --- Shutdown / error propagation ------------------------------------
  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto abort_all = [&] {
    q_in.Close();
    for (auto& q : q_free) q->Close();
    for (auto& q : q_ready) q->Close();
    q_filtered.Close();
    q_done.Close();
  };
  const auto record_error = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(err_mu);
      if (!first_error) first_error = e;
    }
    abort_all();
  };

  // --- Stage accounting -------------------------------------------------
  std::mutex stats_mu;
  StageStats source_stage{"source", 1, 0, 0, 0.0};
  StageStats encode_stage{"encode", config_.encode_workers, 0, 0, 0.0};
  StageStats filter_stage{"filter", ndev, 0, 0, 0.0};
  StageStats verify_stage{"verify", config_.verify_workers, 0, 0, 0.0};
  StageStats sink_stage{"sink", 1, 0, 0, 0.0};

  // Modeled overlapped timeline (seconds since pipeline start).  Encode
  // workers and devices advance private clocks by their busy time; a
  // device cannot start a batch before its encode finished, which is how
  // an encode-bound stream shows up in the modeled makespan.
  std::mutex model_mu;
  std::vector<double> device_clock(static_cast<std::size_t>(ndev), 0.0);
  std::vector<double> device_kt(static_cast<std::size_t>(ndev), 0.0);
  std::vector<double> device_tr(static_cast<std::size_t>(ndev), 0.0);

  std::atomic<int> encoders_left{config_.encode_workers};
  std::atomic<int> drivers_left{ndev};
  std::atomic<int> verifiers_left{config_.verify_workers};

  // Latency observables, resolved once (labeled handle lookup locks the
  // registry); the stage loops observe batch-granular durations only.
  const obs::Histogram h_source_service = obs::StageService("source");
  const obs::Histogram h_encode_wait = obs::StageQueueWait("encode");
  const obs::Histogram h_encode_service = obs::StageService("encode");
  const obs::Histogram h_filter_wait = obs::StageQueueWait("filter");
  const obs::Histogram h_filter_service = obs::StageService("filter");
  const obs::Histogram h_verify_wait = obs::StageQueueWait("verify");
  const obs::Histogram h_verify_service = obs::StageService("verify");
  const obs::Histogram h_sink_wait = obs::StageQueueWait("sink");
  const obs::Histogram h_sink_service = obs::StageService("sink");

  std::vector<std::thread> threads;

  // --- Stage 1: source --------------------------------------------------
  AdaptiveBatcher batcher(config_.adaptive_config);
  threads.emplace_back([&] {
    util::SetCurrentThreadName("gkgpu-source");
    try {
      std::uint64_t seq = 0;
      std::size_t first_pair = 0;
      double busy = 0.0;
      std::uint64_t batches = 0;
      std::uint64_t items = 0;
      std::size_t size_min = 0;
      std::size_t size_max = 0;
      const auto expected =
          static_cast<std::size_t>(engine_->config().read_length);
      for (;;) {
        PairBatch batch;
        batch.seq = seq;
        batch.first_pair = first_pair;
        batch.target_size = capacity;
        if (config_.adaptive) {
          // Feed occupancy: batches buffered ahead of the devices (the
          // source queue plus every per-device encoded queue).  Sink
          // occupancy: the verified queue the ordered sink drains.
          std::size_t feed_items = q_in.size();
          std::size_t feed_cap = q_in.capacity();
          for (const auto& q : q_ready) {
            feed_items += q->size();
            feed_cap += q->capacity();
          }
          const double feed_fill = feed_cap == 0
                                       ? 1.0
                                       : static_cast<double>(feed_items) /
                                             static_cast<double>(feed_cap);
          const double sink_fill = static_cast<double>(q_done.size()) /
                                   static_cast<double>(q_done.capacity());
          batch.target_size = batcher.Next(feed_fill, sink_fill);
        }
        WallTimer t;
        obs::Span span("source", "pipeline");
        const bool more = source(&batch);
        span.Close();
        const double service_s = t.Seconds();
        busy += service_s;
        h_source_service.Observe(service_s);
        if (!more) break;
        if (batch.size() == 0) continue;
        if (batch.size() > capacity) {
          throw std::runtime_error("pipeline source: batch exceeds capacity");
        }
        if (cand_mode) {
          if (!batch.reads.empty() || !batch.refs.empty()) {
            throw std::runtime_error(
                "pipeline source: pair batch in a candidate-mode pipeline");
          }
          if (batch.cand_reads.empty() || batch.cand_reads.size() > capacity) {
            throw std::runtime_error(
                "pipeline source: candidate batch read table empty or over "
                "capacity");
          }
          // The slot encoders stride the read buffer by the configured
          // read length, and the kernel slices [ref_pos, ref_pos + L) from
          // the encoded genome; both must be validated before encoding.
          for (const std::string& r : batch.cand_reads) {
            if (r.size() != expected) {
              throw std::runtime_error(
                  "pipeline source: read length != configured read length " +
                  std::to_string(expected));
            }
          }
          const std::int64_t max_pos =
              ref_len - static_cast<std::int64_t>(expected);
          for (const CandidatePair& c : batch.candidates) {
            if (c.read_index >= batch.cand_reads.size()) {
              throw std::runtime_error(
                  "pipeline source: candidate read_index out of range");
            }
            if (c.ref_pos < 0 || c.ref_pos > max_pos) {
              throw std::runtime_error(
                  "pipeline source: candidate reference offset out of range");
            }
            if (c.strand > 1) {
              throw std::runtime_error(
                  "pipeline source: candidate strand must be 0 or 1");
            }
          }
        } else {
          if (!batch.candidates.empty()) {
            throw std::runtime_error(
                "pipeline source: candidate batch in a pair-mode pipeline");
          }
          if (batch.refs.size() != batch.reads.size()) {
            throw std::runtime_error("pipeline source: reads/refs length skew");
          }
          // A shorter or longer sequence would over-read or cross into the
          // neighbouring pair's slot.
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch.reads[i].size() != expected ||
                batch.refs[i].size() != expected) {
              throw std::runtime_error(
                  "pipeline source: pair " + std::to_string(first_pair + i) +
                  " length != configured read length " +
                  std::to_string(expected));
            }
          }
        }
        ++seq;
        first_pair += batch.size();
        batches += 1;
        items += batch.size();
        size_min = size_min == 0 ? batch.size()
                                 : std::min(size_min, batch.size());
        size_max = std::max(size_max, batch.size());
        if (!q_in.Push(std::move(batch))) break;  // aborted downstream
      }
      q_in.Close();
      std::lock_guard<std::mutex> lk(stats_mu);
      source_stage.busy_seconds += busy;
      source_stage.batches += batches;
      source_stage.items += items;
      stats.batch_size_min = size_min;
      stats.batch_size_max = size_max;
    } catch (...) {
      record_error(std::current_exception());
    }
  });

  // --- Stage 2: encode pool --------------------------------------------
  for (int w = 0; w < config_.encode_workers; ++w) {
    threads.emplace_back([&, w] {
      util::SetCurrentThreadName("gkgpu-encode" + std::to_string(w));
      double busy = 0.0;
      double model_clock = 0.0;
      std::uint64_t batches = 0;
      std::uint64_t items = 0;
      try {
        for (;;) {
          WallTimer wait;
          auto batch = q_in.Pop();
          h_encode_wait.Observe(wait.Seconds());
          if (!batch) break;
          const int d = static_cast<int>(
              batch->seq % static_cast<std::uint64_t>(ndev));
          const auto slot = q_free[d]->Pop();
          if (!slot) break;  // aborted
          obs::Span span("encode", "pipeline");
          const double enc_s =
              cand_mode
                  ? engine_->EncodeCandidatesSlot(
                        d, *slot, batch->cand_reads.data(),
                        batch->cand_reads.size(), batch->candidates.data(),
                        batch->size())
                  : engine_->EncodePairsSlot(d, *slot, batch->reads.data(),
                                             batch->refs.data(),
                                             batch->size());
          span.Close();
          busy += enc_s;
          h_encode_service.Observe(enc_s);
          model_clock += enc_s;
          batch->device = d;
          batch->encode_ready = model_clock;
          batches += 1;
          items += batch->size();
          if (!q_ready[d]->Push({std::move(*batch), *slot})) break;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      {
        std::lock_guard<std::mutex> lk(stats_mu);
        encode_stage.busy_seconds += busy;
        encode_stage.batches += batches;
        encode_stage.items += items;
      }
      if (encoders_left.fetch_sub(1) == 1) {
        for (auto& q : q_ready) q->Close();
      }
    });
  }

  // --- Stage 3: filtration, one driver per device ----------------------
  const bool double_buffered = config_.slots_per_device > 1;
  for (int d = 0; d < ndev; ++d) {
    threads.emplace_back([&, d] {
      util::SetCurrentThreadName("gkgpu-filter" + std::to_string(d));
      double busy = 0.0;
      double clock = 0.0;
      double kt_sum = 0.0;
      double tr_sum = 0.0;
      std::uint64_t batches = 0;
      std::uint64_t items = 0;
      std::uint64_t accepted = 0;
      std::uint64_t bypassed = 0;
      try {
        for (;;) {
          WallTimer wait;
          auto msg = q_ready[d]->Pop();
          h_filter_wait.Observe(wait.Seconds());
          if (!msg) break;
          const std::size_t n = msg->batch.size();
          msg->batch.results.assign(n, PairResult{});
          WallTimer t;
          obs::Span span("filter", "pipeline");
          const StreamBatchStats st =
              cand_mode
                  ? engine_->FilterCandidatesSlot(d, msg->slot, n,
                                                  msg->batch.results.data())
                  : engine_->FilterPairsSlot(d, msg->slot, n,
                                             msg->batch.results.data());
          span.Close();
          const double service_s = t.Seconds();
          busy += service_s;
          h_filter_service.Observe(service_s);
          q_free[d]->Push(msg->slot);
          // Timeline: a prefetch-capable, double-buffered device overlaps
          // the next batch's transfers with the running kernel; otherwise
          // transfers serialize with compute (same convention as the
          // blocking path's device_pipeline_seconds).
          const bool overlapped =
              double_buffered && engine_->device(d).props().supports_prefetch();
          const double device_busy =
              overlapped ? std::max(st.kernel_seconds, st.transfer_seconds)
                         : st.kernel_seconds + st.transfer_seconds;
          clock = std::max(clock, msg->batch.encode_ready) + device_busy;
          kt_sum += st.kernel_seconds;
          tr_sum += st.transfer_seconds;
          accepted += st.accepted;
          bypassed += st.bypassed;
          batches += 1;
          items += n;
          if (!q_filtered.Push(std::move(msg->batch))) break;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      {
        std::lock_guard<std::mutex> lk(model_mu);
        device_clock[static_cast<std::size_t>(d)] = clock;
        device_kt[static_cast<std::size_t>(d)] = kt_sum;
        device_tr[static_cast<std::size_t>(d)] = tr_sum;
      }
      {
        std::lock_guard<std::mutex> lk(stats_mu);
        filter_stage.busy_seconds += busy;
        filter_stage.batches += batches;
        filter_stage.items += items;
        stats.accepted += accepted;
        stats.bypassed += bypassed;
        stats.rejected += items - accepted;
      }
      if (drivers_left.fetch_sub(1) == 1) {
        q_filtered.Close();
      }
    });
  }

  // --- Stage 4: verification pool --------------------------------------
  for (int w = 0; w < config_.verify_workers; ++w) {
    threads.emplace_back([&, w] {
      util::SetCurrentThreadName("gkgpu-sverify" + std::to_string(w));
      double busy = 0.0;
      std::uint64_t batches = 0;
      std::uint64_t pairs_in = 0;
      std::uint64_t confirmed = 0;
      BandedVerifier verifier;
      // Reverse-strand candidates verify the read's reverse complement
      // against the forward window; one cached buffer per worker amortizes
      // the revcomp over a read's contiguous run of reverse candidates.
      std::string rc_buf;
      std::uint32_t rc_read = 0;
      bool rc_valid = false;
      try {
        for (;;) {
          WallTimer wait;
          auto batch = q_filtered.Pop();
          h_verify_wait.Observe(wait.Seconds());
          if (!batch) break;
          const std::size_t n = batch->size();
          batch->edits.assign(n, -1);
          rc_valid = false;
          if (config_.verify) {
            WallTimer t;
            obs::Span span("verify", "pipeline");
            const std::size_t L =
                static_cast<std::size_t>(engine_->config().read_length);
            if (config_.emit_cigar) batch->cigars.assign(n, {});
            for (std::size_t i = 0; i < n; ++i) {
              if (!batch->results[i].accept) continue;
              ++pairs_in;
              std::string_view read;
              std::string_view window;
              if (cand_mode) {
                // Verification windows are views into the reference text —
                // the host never materializes per-candidate segments.
                const CandidatePair c = batch->candidates[i];
                if (c.strand != 0) {
                  if (!rc_valid || rc_read != c.read_index) {
                    ReverseComplementInto(batch->cand_reads[c.read_index],
                                          &rc_buf);
                    rc_read = c.read_index;
                    rc_valid = true;
                  }
                  read = rc_buf;
                } else {
                  read = batch->cand_reads[c.read_index];
                }
                window = config_.reference_text.substr(
                    static_cast<std::size_t>(c.ref_pos), L);
              } else {
                read = batch->reads[i];
                window = batch->refs[i];
              }
              batch->edits[i] = verifier.Distance(read, window, verify_k);
              if (batch->edits[i] >= 0) {
                ++confirmed;
                if (config_.emit_cigar) {
                  // Same computation as WriteSamAlignment, so sinks emit
                  // identical bytes.
                  batch->cigars[i] = CigarFor(read, window, batch->edits[i]);
                }
              }
            }
            span.Close();
            const double service_s = t.Seconds();
            busy += service_s;
            h_verify_service.Observe(service_s);
          }
          batches += 1;
          if (!q_done.Push(std::move(*batch))) break;
        }
      } catch (...) {
        record_error(std::current_exception());
      }
      {
        std::lock_guard<std::mutex> lk(stats_mu);
        verify_stage.busy_seconds += busy;
        verify_stage.batches += batches;
        verify_stage.items += pairs_in;
        stats.verified_pairs += pairs_in;
        stats.true_mappings += confirmed;
      }
      if (verifiers_left.fetch_sub(1) == 1) {
        q_done.Close();
      }
    });
  }

  // --- Stage 5: ordered sink (this thread) ------------------------------
  try {
    std::map<std::uint64_t, PairBatch> pending;
    std::uint64_t next_seq = 0;
    for (;;) {
      WallTimer wait;
      auto batch = q_done.Pop();
      h_sink_wait.Observe(wait.Seconds());
      if (!batch) break;
      pending.emplace(batch->seq, std::move(*batch));
      while (!pending.empty() && pending.begin()->first == next_seq) {
        PairBatch out = std::move(pending.begin()->second);
        pending.erase(pending.begin());
        ++next_seq;
        sink_stage.batches += 1;
        sink_stage.items += out.size();
        stats.pairs += out.size();
        stats.batches += 1;
        WallTimer t;
        obs::Span span("sink", "pipeline");
        sink(std::move(out));
        span.Close();
        const double service_s = t.Seconds();
        sink_stage.busy_seconds += service_s;
        h_sink_service.Observe(service_s);
      }
    }
  } catch (...) {
    record_error(std::current_exception());
  }

  for (auto& t : threads) t.join();

  stats.wall_seconds = run_timer.Seconds();
  for (int d = 0; d < ndev; ++d) {
    stats.filter_seconds =
        std::max(stats.filter_seconds,
                 device_clock[static_cast<std::size_t>(d)]);
    stats.kernel_seconds =
        std::max(stats.kernel_seconds, device_kt[static_cast<std::size_t>(d)]);
    stats.kernel_seconds_total += device_kt[static_cast<std::size_t>(d)];
    stats.transfer_seconds =
        std::max(stats.transfer_seconds,
                 device_tr[static_cast<std::size_t>(d)]);
  }
  stats.encode_seconds = encode_stage.busy_seconds;
  stats.verify_seconds = verify_stage.busy_seconds;
  stats.grow_decisions = batcher.grows();
  stats.shrink_decisions = batcher.shrinks();
  stats.stages = {source_stage, encode_stage, filter_stage, verify_stage,
                  sink_stage};
  stats.queues.push_back({"source->encode", q_in.capacity(), q_in.stats()});
  for (int d = 0; d < ndev; ++d) {
    stats.queues.push_back({"encoded->gpu" + std::to_string(d),
                            q_ready[d]->capacity(), q_ready[d]->stats()});
  }
  stats.queues.push_back(
      {"filter->verify", q_filtered.capacity(), q_filtered.stats()});
  stats.queues.push_back({"verify->sink", q_done.capacity(), q_done.stats()});

  {
    std::lock_guard<std::mutex> lk(err_mu);
    if (first_error) std::rethrow_exception(first_error);
  }
  return stats;
}

}  // namespace gkgpu::pipeline
