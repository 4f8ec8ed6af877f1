// Host-side gates around the filtration and service layers, each measured
// on wall-clock time, with every number written to BENCH_pipeline.json.
//
// The batch filtration core: the same mrFAST-profile input pairs run once
// through the per-pair seed path (virtual Filter(string_view, string_view)
// per candidate — per-pair dispatch, per-pair encoding) and once through
// the batch API (one PairBlock, encode once, FilterBatch on uint64_t
// lanes or AVX2 behind runtime dispatch).  The batched GateKeeper must
// clear 1.2x where AVX2 dispatches (on the scalar tier both paths run the
// same 64-bit kernel, so its ratio is only reported) and the batched
// SneakySnake — whose decode-free maze build replaces a much heavier
// per-pair walk — 1.5x; throughputs and the dispatched kernel tier land in
// BENCH_pipeline.json.
//
// Two service-mode gates ride along: the persistent index must mmap-load
// >= 10x faster than a cold in-memory rebuild (index + 2-bit encoding on
// a thread pool, as the mapper builds them) of the same reference, and
// the daemon's served throughput over two concurrent Unix-socket clients
// is recorded as a trajectory point.
//
// The genome scale-out machinery is measured on a forced multi-shard
// layout (8 chromosomes, shard budget a quarter of the genome): the
// sharded build without a pool vs on one (shards one after another, each
// across the pool), recorded without a gate.
//
// Observability rides the same run: per-filter false-accept rates are
// computed from the metrics registry's funnel counters against banded-DP
// ground truth, a gate proves the always-on instrumentation costs <= 2%
// on the hot FilterBatch path (registry enabled vs disabled,
// interleaved), and the full registry snapshot — funnel plus p99 stage
// latencies — is embedded in BENCH_pipeline.json.
//
// Scale with GKGPU_PAIRS (default 200,000), GKGPU_GENOME, GKGPU_READS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "align/banded.hpp"
#include "common.hpp"
#include "encode/dna.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/sneakysnake.hpp"
#include "io/index_io.hpp"
#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/mapper.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "simd/dispatch.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

using namespace gkgpu;
using namespace gkgpu::bench;

namespace {

struct BatchFilterResult {
  double per_pair_s = 0.0;  // virtual Filter() per candidate
  double batch_s = 0.0;     // PairBlock build + FilterBatch
  std::uint64_t per_pair_accepts = 0;
  std::uint64_t batch_accepts = 0;
  double speedup() const {
    return batch_s > 0.0 ? per_pair_s / batch_s : 0.0;
  }
};

/// Times the filter stage both ways on identical inputs.  Both sides pay
/// their own preprocessing: the seed path encodes inside every Filter()
/// call, the batch path builds the encoded block once and filters it.
/// Undefined ('N') pairs bypass on both sides — the per-pair loop mirrors
/// the seed path's bypass policy, which the block builder encodes as the
/// bypass bit — so the accept counts are comparable for every filter, not
/// just those whose Filter() bypasses internally.
BatchFilterResult RunBatchFilterBench(const PreAlignmentFilter& filter,
                                      const Dataset& data, int length, int e,
                                      int reps) {
  const std::size_t n = data.size();
  BatchFilterResult r;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    std::uint64_t accepts = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ContainsUnknown(data.reads[i]) || ContainsUnknown(data.refs[i])) {
        ++accepts;
        continue;
      }
      accepts += filter.Filter(data.reads[i], data.refs[i], e).accept ? 1 : 0;
    }
    const double s = t.Seconds();
    r.per_pair_s = rep == 0 ? s : std::min(r.per_pair_s, s);
    r.per_pair_accepts = accepts;
  }
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    PairBlockStorage block(length);
    for (std::size_t i = 0; i < n; ++i) {
      block.Add(data.reads[i], data.refs[i]);
    }
    std::vector<PairResult> results(n);
    filter.FilterBatch(block.view(), e, results.data());
    const double s = t.Seconds();
    r.batch_s = rep == 0 ? s : std::min(r.batch_s, s);
    std::uint64_t accepts = 0;
    for (const PairResult& pr : results) accepts += pr.accept;
    r.batch_accepts = accepts;
  }
  return r;
}

/// Host-tier accepts of one filter, read from the registry's funnel
/// counters (the same series `gkgpu stats` exposes).
std::uint64_t RegistryAccepts(const char* filter) {
  return static_cast<std::uint64_t>(
      obs::Registry::Global().Snapshot().Value(
          "gkgpu_filter_accepts_total",
          {{"filter", filter},
           {"tier", simd::LevelName(simd::ActiveLevel())}}));
}

struct OverheadResult {
  double enabled_s = 0.0;
  double disabled_s = 0.0;
  /// Clamped at zero: with min-of-reps on both legs a negative delta is
  /// pure measurement noise (the enabled leg cannot be faster), and
  /// reporting it as negative overhead only destabilizes trend plots.
  double overhead_pct() const {
    return disabled_s > 0.0
               ? std::max(0.0,
                          (enabled_s - disabled_s) / disabled_s * 100.0)
               : 0.0;
  }
};

/// The always-on-cheap gate: the hot host filtration path timed with the
/// metrics registry enabled vs disabled, interleaved so both sides see
/// the same thermal/scheduler conditions, min-of-reps each after an
/// untimed warmup pass of both legs (cold caches and lazy counter
/// resolution otherwise land on whichever leg runs first).
OverheadResult RunMetricsOverheadBench(const PreAlignmentFilter& filter,
                                       const Dataset& data, int length,
                                       int e, int reps) {
  const std::size_t n = data.size();
  PairBlockStorage block(length);
  for (std::size_t i = 0; i < n; ++i) {
    block.Add(data.reads[i], data.refs[i]);
  }
  std::vector<PairResult> results(n);
  OverheadResult r;
  obs::SetEnabled(true);
  filter.FilterBatch(block.view(), e, results.data());
  obs::SetEnabled(false);
  filter.FilterBatch(block.view(), e, results.data());
  for (int rep = 0; rep < reps; ++rep) {
    obs::SetEnabled(true);
    WallTimer on;
    filter.FilterBatch(block.view(), e, results.data());
    const double on_s = on.Seconds();
    obs::SetEnabled(false);
    WallTimer off;
    filter.FilterBatch(block.view(), e, results.data());
    const double off_s = off.Seconds();
    r.enabled_s = rep == 0 ? on_s : std::min(r.enabled_s, on_s);
    r.disabled_s = rep == 0 ? off_s : std::min(r.disabled_s, off_s);
  }
  obs::SetEnabled(true);
  return r;
}

struct IndexLoadResult {
  double build_s = 0.0;  // cold rebuild: CSR index + 2-bit encoding
  double load_s = 0.0;   // MappedIndexFile::Open
  double speedup() const { return load_s > 0.0 ? build_s / load_s : 0.0; }
};

/// Startup cost both ways on the same reference: rebuilding the mapper's
/// startup artifacts from the text vs mmap-loading the persisted file.
IndexLoadResult RunIndexLoadBench(const ReferenceSet& ref,
                                  const std::string& path, int reps) {
  IndexLoadResult r;
  BuildAndWriteIndexFile(path, ref, 12);
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    ThreadPool pool;
    const KmerIndex index(ref.text(), 12, &pool);
    const ReferenceEncoding enc = EncodeReference(ref.text(), &pool);
    // Consume both so the builds cannot be elided.
    const double s =
        index.positions().size() + enc.words.size() > 0 ? t.Seconds() : 0.0;
    r.build_s = rep == 0 ? s : std::min(r.build_s, s);
  }
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const MappedIndexFile mapped = MappedIndexFile::Open(path);
    const double s = mapped.file_bytes() > 0 ? t.Seconds() : 0.0;
    r.load_s = rep == 0 ? s : std::min(r.load_s, s);
  }
  return r;
}

struct ServedResult {
  double wall_s = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t coalesced_batches = 0;
};

/// Daemon throughput: a MapServer resident on the mmap'd index, two
/// concurrent clients each submitting half the reads over the socket.
ServedResult RunServedBench(const MappedIndexFile& mapped,
                            std::size_t read_count) {
  MapperConfig mcfg;
  mcfg.k = mapped.k();
  mcfg.read_length = 100;
  mcfg.error_threshold = 5;
  mcfg.verify_threads = 4;
  const ReadMapper mapper(mapped.reference(), mapped.seed_index().Alias(),
                          mapped.encoding(), mcfg);
  const GateKeeperFilter filter;

  serve::ServeConfig scfg;
  scfg.socket_path = (std::filesystem::temp_directory_path() /
                      "gkgpu_bench_pipeline.sock")
                         .string();
  scfg.threads = 4;
  serve::MapServer server(mapper, &filter, scfg);
  std::thread run([&] { server.Run(); });
  while (!server.serving()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto seqs = SimulateReadSequences(
      mapped.reference().text(), read_count, 100,
      ReadErrorProfile::Illumina(), 733);
  std::string fastq_a, fastq_b;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    std::string& dst = i % 2 == 0 ? fastq_a : fastq_b;
    dst += "@b" + std::to_string(i) + "\n" + seqs[i] + "\n+\n" +
           std::string(seqs[i].size(), 'I') + "\n";
  }

  ServedResult r;
  WallTimer t;
  const auto client = [&](const std::string& text) {
    std::istringstream fastq(text);
    std::ostringstream sam;
    serve::MapOverSocket(scfg.socket_path, fastq, sam);
  };
  std::thread ca([&] { client(fastq_a); });
  std::thread cb([&] { client(fastq_b); });
  ca.join();
  cb.join();
  r.wall_s = t.Seconds();
  server.Shutdown();
  run.join();
  const serve::ServeStats stats = server.stats();
  r.reads = stats.reads;
  r.coalesced_batches = stats.coalesced_batches;
  return r;
}

struct ShardBuildResult {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  std::size_t shard_count = 0;
  double speedup() const {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }
};

/// The sharded build on a forced multi-shard layout: the same SeedIndex
/// built without a pool vs on one.  k = 10 keeps the per-shard offset
/// tables small enough that the bench exercises the build passes, not the
/// allocator.
ShardBuildResult RunShardBuildBench(const ReferenceSet& ref,
                                    std::int64_t shard_max_bp, int reps) {
  SeedConfig cfg;
  cfg.k = 10;
  cfg.shard_max_bp = shard_max_bp;
  ShardBuildResult r;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const SeedIndex idx = SeedIndex::Build(ref, cfg);
    const double s = idx.indexed_positions() > 0 ? t.Seconds() : 0.0;
    r.serial_s = rep == 0 ? s : std::min(r.serial_s, s);
    r.shard_count = idx.shard_count();
  }
  ThreadPool pool;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    const SeedIndex idx = SeedIndex::Build(ref, cfg, &pool);
    const double s = idx.indexed_positions() > 0 ? t.Seconds() : 0.0;
    r.parallel_s = rep == 0 ? s : std::min(r.parallel_s, s);
  }
  return r;
}

}  // namespace

int main() {
  const std::size_t pairs = EnvSize("GKGPU_PAIRS", 200000);
  const int length = 100;
  const int e = 5;
  const int reps = static_cast<int>(EnvSize("GKGPU_REPS", 3));
  const Dataset data = MakeDataset(MrFastCandidateProfile(length), pairs, 907);

  // --- Batch filtration core: per-pair seed path vs FilterBatch --------
  const GateKeeperFilter gk_filter;
  const std::uint64_t gk_accepts_before = RegistryAccepts("GateKeeper-GPU");
  const BatchFilterResult batch_run =
      RunBatchFilterBench(gk_filter, data, length, e, reps);
  const std::uint64_t gk_accepts_reg =
      (RegistryAccepts("GateKeeper-GPU") - gk_accepts_before) /
      static_cast<std::uint64_t>(reps);
  // The per-pair Filter() runs the 64-bit kernel the scalar batch tier
  // runs, so the 1.2x bar measures what the AVX2 tier adds: it gates only
  // where AVX2 dispatches.
  const bool batch_gated = simd::ActiveLevel() == simd::Level::kAvx2;
  const bool batch_ok = !batch_gated || batch_run.speedup() >= 1.2;
  const bool batch_consistent =
      batch_run.per_pair_accepts == batch_run.batch_accepts;
  std::printf(
      "\n=== batch filtration core (GateKeeper, %s kernels) ===\n"
      "per-pair Filter(): %.4f s (%.1f Mp/s)   "
      "PairBlock FilterBatch: %.4f s (%.1f Mp/s)   speedup %.2fx %s\n",
      simd::LevelName(simd::ActiveLevel()), batch_run.per_pair_s,
      MillionsPerSecond(pairs, batch_run.per_pair_s), batch_run.batch_s,
      MillionsPerSecond(pairs, batch_run.batch_s), batch_run.speedup(),
      !batch_gated ? "(not gated: both paths run the scalar kernel)"
      : batch_ok   ? ">= 1.2x"
                   : "BELOW 1.2x");
  if (!batch_consistent) {
    std::printf("batch path DISAGREES with the per-pair path: %llu vs %llu "
                "accepts\n",
                static_cast<unsigned long long>(batch_run.batch_accepts),
                static_cast<unsigned long long>(batch_run.per_pair_accepts));
  }

  // --- Batch SneakySnake: decode-free maze build vs per-pair Filter ----
  // The per-pair path re-walks the character-domain maze per candidate;
  // FilterBatch builds every diagonal bit-parallel from the encoded
  // lanes.  The gate is stiffer than GateKeeper's because the snake's
  // per-pair baseline is so much heavier.
  const SneakySnakeFilter snake_filter;
  const std::uint64_t snake_accepts_before = RegistryAccepts("SneakySnake");
  const BatchFilterResult snake_run =
      RunBatchFilterBench(snake_filter, data, length, e, reps);
  const std::uint64_t snake_accepts_reg =
      (RegistryAccepts("SneakySnake") - snake_accepts_before) /
      static_cast<std::uint64_t>(reps);
  const bool snake_ok = snake_run.speedup() >= 1.5;
  const bool snake_consistent =
      snake_run.per_pair_accepts == snake_run.batch_accepts;
  std::printf(
      "\n=== batch SneakySnake (%s kernels) ===\n"
      "per-pair Filter(): %.4f s (%.1f Mp/s)   "
      "PairBlock FilterBatch: %.4f s (%.1f Mp/s)   speedup %.2fx %s 1.5x\n",
      simd::LevelName(simd::ActiveLevel()), snake_run.per_pair_s,
      MillionsPerSecond(pairs, snake_run.per_pair_s), snake_run.batch_s,
      MillionsPerSecond(pairs, snake_run.batch_s), snake_run.speedup(),
      snake_ok ? ">=" : "BELOW");
  if (!snake_consistent) {
    std::printf("snake batch path DISAGREES with the per-pair path: "
                "%llu vs %llu accepts\n",
                static_cast<unsigned long long>(snake_run.batch_accepts),
                static_cast<unsigned long long>(snake_run.per_pair_accepts));
  }

  // --- per-filter false-accept rate from the registry funnel -----------
  // Ground truth is banded DP over the same pairs.  The filters have no
  // false rejects, so every truly-within-e pair is in the accept set and
  // the excess accepts are exactly the false ones.  Accept counts come
  // from the registry's funnel counters — the series `gkgpu stats`
  // exposes — not from the benches' own tallies.
  std::uint64_t true_pairs = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    true_pairs += WithinEditDistance(data.reads[i], data.refs[i], e) ? 1 : 0;
  }
  const auto false_accept_rate = [&](std::uint64_t accepts) {
    const std::uint64_t false_accepts =
        accepts > true_pairs ? accepts - true_pairs : 0;
    return accepts > 0
               ? static_cast<double>(false_accepts) /
                     static_cast<double>(accepts) * 100.0
               : 0.0;
  };
  const double gk_far = false_accept_rate(gk_accepts_reg);
  const double snake_far = false_accept_rate(snake_accepts_reg);
  std::printf(
      "\n=== false-accept rate (registry funnel vs banded-DP truth) ===\n"
      "%zu pairs, %llu truly within e = %d\n"
      "GateKeeper-GPU: %llu accepts -> %.2f%% false   "
      "SneakySnake: %llu accepts -> %.2f%% false\n",
      data.size(), static_cast<unsigned long long>(true_pairs), e,
      static_cast<unsigned long long>(gk_accepts_reg), gk_far,
      static_cast<unsigned long long>(snake_accepts_reg), snake_far);

  // --- metrics overhead: the always-on-cheap gate ----------------------
  const OverheadResult obs_run = RunMetricsOverheadBench(
      gk_filter, data, length, e, std::max(reps, 5));
  const bool obs_ok = obs_run.overhead_pct() <= 2.0;
  std::printf(
      "\n=== metrics overhead (FilterBatch, registry on vs off) ===\n"
      "enabled: %.4f s   disabled: %.4f s   overhead %.2f%% %s 2%%\n",
      obs_run.enabled_s, obs_run.disabled_s, obs_run.overhead_pct(),
      obs_ok ? "<=" : "ABOVE");

  // --- persistent index: mmap load vs cold rebuild ---------------------
  const std::size_t genome_len = EnvSize("GKGPU_GENOME", 1000000);
  const ReferenceSet bench_ref("bench_chr", GenerateGenome(genome_len, 501));
  const std::string index_path =
      (std::filesystem::temp_directory_path() / "gkgpu_bench_pipeline.gki")
          .string();
  const IndexLoadResult index_run =
      RunIndexLoadBench(bench_ref, index_path, reps);
  const bool index_ok = index_run.speedup() >= 10.0;
  std::printf(
      "\n=== persistent index (%zu bp reference, k = 12) ===\n"
      "cold rebuild (CSR + encoding): %.1f ms   mmap load: %.3f ms   "
      "speedup %.0fx %s 10x\n",
      genome_len, index_run.build_s * 1e3, index_run.load_s * 1e3,
      index_run.speedup(), index_ok ? ">=" : "BELOW");

  // --- daemon served throughput (two concurrent clients) ---------------
  const std::size_t served_reads = EnvSize("GKGPU_READS", 20000);
  const MappedIndexFile mapped = MappedIndexFile::Open(index_path);
  const ServedResult served = RunServedBench(mapped, served_reads);
  const double served_mreads =
      served.wall_s > 0.0
          ? static_cast<double>(served.reads) / served.wall_s / 1e6
          : 0.0;
  std::printf(
      "served %llu reads in %.3f s over 2 concurrent clients "
      "(%.2f Mreads/s, %llu coalesced batches)\n",
      static_cast<unsigned long long>(served.reads), served.wall_s,
      served_mreads,
      static_cast<unsigned long long>(served.coalesced_batches));
  std::error_code index_ec;
  std::filesystem::remove(index_path, index_ec);

  // --- sharded index: the build without a pool vs on one ---------------
  // An 8-chromosome reference with the shard budget forced down to a
  // quarter of the genome — the small-genome stand-in for a > 4 Gbp
  // layout.
  ReferenceSet shard_ref;
  const std::size_t chrom_len = std::max<std::size_t>(genome_len / 8, 2048);
  for (int c = 0; c < 8; ++c) {
    shard_ref.Add("shard_chr" + std::to_string(c + 1),
                  GenerateGenome(chrom_len, 601 + static_cast<unsigned>(c)));
  }
  const std::int64_t shard_budget =
      static_cast<std::int64_t>(shard_ref.text().size() / 4 + 1);
  const ShardBuildResult shard_run =
      RunShardBuildBench(shard_ref, shard_budget, reps);
  std::printf(
      "\n=== sharded index build (%zu bp, 8 chromosomes, %zu shards, "
      "k = 10) ===\n"
      "no pool: %.1f ms   on a pool: %.1f ms   speedup %.2fx\n",
      shard_ref.text().size(), shard_run.shard_count,
      shard_run.serial_s * 1e3, shard_run.parallel_s * 1e3,
      shard_run.speedup());

  // Machine-readable trajectory point (uploaded as a CI artifact).
  BenchReport report("pipeline");
  report.Add("pairs", pairs);
  report.Add("reps", reps);
  report.Add("read_length", length);
  report.Add("error_threshold", e);
  report.Add("batch_simd_level", simd::LevelName(simd::ActiveLevel()));
  report.Add("simd_avx2_compiled", simd::Avx2Compiled());
  report.Add("batch_per_pair_seconds", batch_run.per_pair_s);
  report.Add("batch_seconds", batch_run.batch_s);
  report.Add("batch_per_pair_mpairs_per_s",
             MillionsPerSecond(pairs, batch_run.per_pair_s));
  report.Add("batch_mpairs_per_s",
             MillionsPerSecond(pairs, batch_run.batch_s));
  report.Add("batch_speedup", batch_run.speedup());
  report.Add("batch_gate_threshold", 1.2);
  report.Add("batch_gate_applies", batch_gated);
  report.Add("batch_gate_pass", batch_ok);
  report.Add("batch_decisions_consistent", batch_consistent);
  report.Add("snake_batch_per_pair_seconds", snake_run.per_pair_s);
  report.Add("snake_batch_seconds", snake_run.batch_s);
  report.Add("snake_batch_per_pair_mpairs_per_s",
             MillionsPerSecond(pairs, snake_run.per_pair_s));
  report.Add("snake_batch_mpairs_per_s",
             MillionsPerSecond(pairs, snake_run.batch_s));
  report.Add("snake_batch_speedup", snake_run.speedup());
  report.Add("snake_batch_gate_threshold", 1.5);
  report.Add("snake_batch_gate_pass", snake_ok);
  report.Add("snake_batch_decisions_consistent", snake_consistent);
  report.Add("index_genome_bp", genome_len);
  report.Add("index_build_ms", index_run.build_s * 1e3);
  report.Add("index_load_ms", index_run.load_s * 1e3);
  report.Add("index_load_speedup", index_run.speedup());
  report.Add("index_gate_threshold", 10.0);
  report.Add("index_gate_pass", index_ok);
  report.Add("served_reads", served.reads);
  report.Add("served_wall_seconds", served.wall_s);
  report.Add("served_mreads_per_s", served_mreads);
  report.Add("served_coalesced_batches", served.coalesced_batches);
  report.Add("gatekeeper_false_accept_pct", gk_far);
  report.Add("snake_false_accept_pct", snake_far);
  report.Add("metrics_enabled_seconds", obs_run.enabled_s);
  report.Add("metrics_disabled_seconds", obs_run.disabled_s);
  report.Add("metrics_overhead_pct", obs_run.overhead_pct());
  report.Add("metrics_gate_threshold_pct", 2.0);
  report.Add("metrics_gate_pass", obs_ok);
  report.Add("shard_count", shard_run.shard_count);
  report.Add("shard_build_serial_ms", shard_run.serial_s * 1e3);
  report.Add("shard_build_parallel_ms", shard_run.parallel_s * 1e3);
  report.Add("shard_build_speedup", shard_run.speedup());
  // The whole-run funnel and stage tail latencies, from the same registry
  // snapshot the daemon's `gkgpu stats` would serve.
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  report.Add("funnel_filter_input",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_input_total")));
  report.Add("funnel_accepts",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_accepts_total")));
  report.Add("funnel_rejects",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_rejects_total")));
  report.Add("funnel_bypasses",
             static_cast<std::uint64_t>(
                 snap.Total("gkgpu_filter_bypasses_total")));
  if (const obs::FamilySnapshot* service =
          snap.Find("gkgpu_stage_service_seconds")) {
    for (const auto& s : service->samples) {
      if (s.labels.empty() || !s.histogram || s.histogram->count == 0) {
        continue;
      }
      report.Add("stage_" + s.labels[0].second + "_p99_seconds",
                 s.histogram->Quantile(0.99));
    }
  }
  report.AddRaw("metrics", snap.RenderJson());
  report.Write();
  return (batch_ok && batch_consistent && snake_ok && snake_consistent &&
          index_ok && obs_ok)
             ? 0
             : 1;
}
