#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
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

StreamingPipeline::StreamingPipeline(GateKeeperGpuEngine* engine,
                                     ThreadPool* pool, PipelineConfig config)
    : engine_(engine),
      config_(config),
      gatekeeper_(engine->config().algorithm, pool,
                  static_cast<std::size_t>(engine->plan().threads_per_block)) {
  config_.batch_size = std::max<std::size_t>(1, config_.batch_size);
  config_.queue_depth = std::max<std::size_t>(1, config_.queue_depth);
  config_.encode_workers = std::max(1, config_.encode_workers);
  config_.verify_workers = std::max(1, config_.verify_workers);

  if (config_.reference_text.empty()) {
    throw std::invalid_argument("pipeline: reference_text is required");
  }
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
        "pipeline: the engine's reference must be loaded from the "
        "configured reference text");
  }

  // config().batch_size publishes the largest batch the run can produce.
  if (config_.adaptive) {
    AdaptiveBatcherConfig& a = config_.adaptive_config;
    a.min_size = std::max<std::size_t>(1, a.min_size);
    a.max_size = std::max(a.min_size, a.max_size);
    a.initial = a.initial == 0 ? config_.batch_size : a.initial;
    a.initial = std::clamp(a.initial, a.min_size, a.max_size);
    config_.batch_size = a.max_size;
  }
}

PipelineStats StreamingPipeline::Run(const BatchSource& source,
                                     const BatchSink& sink) {
  const std::size_t capacity = config_.batch_size;
  const int read_length = engine_->config().read_length;
  const int e = engine_->config().error_threshold;
  const auto ref_len = static_cast<std::int64_t>(config_.reference_text.size());
  const ReferenceEncodingView ref_enc = engine_->reference_encoding();
  const int verify_k =
      config_.verify_threshold >= 0 ? config_.verify_threshold : e;

  PipelineStats stats;
  WallTimer run_timer;

  // --- Queues -----------------------------------------------------------
  BoundedQueue<PairBatch> q_in(config_.queue_depth);
  BoundedQueue<PairBatch> q_encoded(config_.queue_depth);
  BoundedQueue<PairBatch> q_filtered(config_.queue_depth);
  BoundedQueue<PairBatch> q_done(config_.queue_depth);

  // --- Shutdown / error propagation ------------------------------------
  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto abort_all = [&] {
    q_in.Close();
    q_encoded.Close();
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
  StageStats filter_stage{"filter", 1, 0, 0, 0.0};
  StageStats verify_stage{"verify", config_.verify_workers, 0, 0, 0.0};
  StageStats sink_stage{"sink", 1, 0, 0, 0.0};

  std::atomic<int> encoders_left{config_.encode_workers};
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
      const auto expected = static_cast<std::size_t>(read_length);
      for (;;) {
        PairBatch batch;
        batch.seq = seq;
        batch.first_pair = first_pair;
        batch.target_size = capacity;
        if (config_.adaptive) {
          // Feed occupancy: batches buffered ahead of the filter stage
          // (the source and encoded queues).  Sink occupancy: the verified
          // queue the ordered sink drains.
          const double feed_fill =
              static_cast<double>(q_in.size() + q_encoded.size()) /
              static_cast<double>(q_in.capacity() + q_encoded.capacity());
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
        if (batch.cand_reads.empty() || batch.cand_reads.size() > capacity) {
          throw std::runtime_error(
              "pipeline source: candidate batch read table empty or over "
              "capacity");
        }
        // The encoders stride the read table by the configured read
        // length, and the filter slices [ref_pos, ref_pos + L) from the
        // encoded genome; both must be validated before encoding.
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
      std::uint64_t batches = 0;
      std::uint64_t items = 0;
      try {
        for (;;) {
          WallTimer wait;
          auto batch = q_in.Pop();
          h_encode_wait.Observe(wait.Seconds());
          if (!batch) break;
          WallTimer t;
          obs::Span span("encode", "pipeline");
          batch->encoded_reads = EncodeBatch(batch->cand_reads, read_length);
          span.Close();
          const double service_s = t.Seconds();
          busy += service_s;
          h_encode_service.Observe(service_s);
          batches += 1;
          items += batch->size();
          if (!q_encoded.Push(std::move(*batch))) break;
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
      if (encoders_left.fetch_sub(1) == 1) q_encoded.Close();
    });
  }

  // --- Stage 3: filtration, one driver over the borrowed pool ----------
  threads.emplace_back([&] {
    util::SetCurrentThreadName("gkgpu-filter");
    std::uint64_t accepted = 0;
    std::uint64_t bypassed = 0;
    try {
      for (;;) {
        WallTimer wait;
        auto batch = q_encoded.Pop();
        h_filter_wait.Observe(wait.Seconds());
        if (!batch) break;
        const std::size_t n = batch->size();
        batch->results.resize(n);
        WallTimer t;
        obs::Span span("filter", "pipeline");
        gatekeeper_.FilterBlock(CandidateBlock(batch->encoded_reads, ref_enc,
                                               batch->candidates.data(), n),
                                e, batch->results.data());
        span.Close();
        const double service_s = t.Seconds();
        filter_stage.busy_seconds += service_s;
        h_filter_service.Observe(service_s);
        for (const PairResult& r : batch->results) {
          accepted += r.accept;
          bypassed += r.bypassed;
        }
        filter_stage.batches += 1;
        filter_stage.items += n;
        if (!q_filtered.Push(std::move(*batch))) break;
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lk(stats_mu);
      stats.accepted += accepted;
      stats.bypassed += bypassed;
      stats.rejected += filter_stage.items - accepted;
    }
    q_filtered.Close();
  });

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
              // Verification windows are views into the reference text —
              // the host never materializes per-candidate segments.
              const CandidatePair c = batch->candidates[i];
              std::string_view read;
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
              const std::string_view window = config_.reference_text.substr(
                  static_cast<std::size_t>(c.ref_pos), L);
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
  stats.encode_seconds = encode_stage.busy_seconds;
  stats.verify_seconds = verify_stage.busy_seconds;
  stats.grow_decisions = batcher.grows();
  stats.shrink_decisions = batcher.shrinks();
  stats.stages = {source_stage, encode_stage, filter_stage, verify_stage,
                  sink_stage};
  stats.queues.push_back({"source->encode", q_in.capacity(), q_in.stats()});
  stats.queues.push_back(
      {"encode->filter", q_encoded.capacity(), q_encoded.stats()});
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
