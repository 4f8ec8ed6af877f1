#include "obs/names.hpp"

namespace gkgpu::obs {

namespace {
Registry& R() { return Registry::Global(); }
}  // namespace

Counter CandidatesSeeded() {
  static const Counter c = R().counter(
      "gkgpu_candidates_seeded_total",
      "Candidate locations produced by seeding, before any pruning");
  return c;
}

Counter SeederCandidates(const std::string& seeder) {
  return R().counter("gkgpu_seed_candidates_total",
                     "Candidate locations by seeding strategy",
                     {{"seeder", seeder}});
}

Counter ShardCandidates(const std::string& shard) {
  return R().counter("gkgpu_shard_candidates_total",
                     "Candidate locations attributed to each index shard "
                     "(multi-shard runs only)",
                     {{"shard", shard}});
}

Counter CandidatesVotedOut() {
  static const Counter c = R().counter(
      "gkgpu_candidates_voted_out_total",
      "Pigeonhole candidates the seed vote proved unable to verify");
  return c;
}

Counter CandidatesPruned() {
  static const Counter c = R().counter(
      "gkgpu_candidates_pruned_total",
      "Candidates dropped by the paired-end insert-window pruner");
  return c;
}

Counter FilterInput() {
  static const Counter c =
      R().counter("gkgpu_filter_input_total",
                  "Pairs presented to a pre-alignment filter batch");
  return c;
}

Counter FilterAccepts(const std::string& filter, const std::string& tier) {
  return R().counter("gkgpu_filter_accepts_total",
                     "Pairs accepted per filter and SIMD dispatch tier "
                     "(includes bypasses)",
                     {{"filter", filter}, {"tier", tier}});
}

Counter FilterRejects(const std::string& filter, const std::string& tier) {
  return R().counter("gkgpu_filter_rejects_total",
                     "Pairs rejected per filter and SIMD dispatch tier",
                     {{"filter", filter}, {"tier", tier}});
}

Counter FilterBypasses(const std::string& filter, const std::string& tier) {
  return R().counter("gkgpu_filter_bypasses_total",
                     "Pairs accepted without a filter verdict (N bases or "
                     "over-threshold windows) per filter and tier",
                     {{"filter", filter}, {"tier", tier}});
}

Counter RescuedMates() {
  static const Counter c = R().counter(
      "gkgpu_rescued_mates_total",
      "Mates recovered by banded Smith-Waterman rescue in paired mode");
  return c;
}

Counter ReadsMapped() {
  static const Counter c =
      R().counter("gkgpu_reads_mapped_total", "Reads emitted as mapped");
  return c;
}

Counter ReadsUnmapped() {
  static const Counter c =
      R().counter("gkgpu_reads_unmapped_total", "Reads emitted as unmapped");
  return c;
}

Histogram StageService(const std::string& stage) {
  return R().histogram("gkgpu_stage_service_seconds",
                       "Per-chunk stage service time in seconds",
                       {{"stage", stage}});
}

Counter ServeSessions(const std::string& state) {
  return R().counter("gkgpu_serve_sessions_total",
                     "Daemon sessions by terminal state",
                     {{"state", state}});
}

Counter ServeReads() {
  static const Counter c = R().counter("gkgpu_serve_reads_total",
                                       "Reads received over serve sessions");
  return c;
}

Counter ServeSkippedReads() {
  static const Counter c = R().counter(
      "gkgpu_serve_skipped_reads_total",
      "Reads skipped by serve sessions (wrong length for the job)");
  return c;
}

Counter ServeRecords() {
  static const Counter c = R().counter(
      "gkgpu_serve_records_total", "SAM records returned to serve clients");
  return c;
}

Counter ServeBatches() {
  static const Counter c = R().counter(
      "gkgpu_serve_batches_total", "Chunks mapped by the daemon's workers");
  return c;
}

Counter ServeCoalescedBatches() {
  static const Counter c = R().counter(
      "gkgpu_serve_coalesced_batches_total",
      "Daemon chunks containing reads from more than one session");
  return c;
}

Gauge ServeSessionsActive() {
  static const Gauge g = R().gauge("gkgpu_serve_sessions_active",
                                   "Serve sessions currently open");
  return g;
}

Histogram ServeSessionSeconds() {
  static const Histogram h = R().histogram(
      "gkgpu_serve_session_seconds",
      "Serve session wall time from accept to completion, in seconds");
  return h;
}

}  // namespace gkgpu::obs
