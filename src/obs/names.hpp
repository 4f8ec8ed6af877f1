// Canonical metric names and cached handle accessors.  Every
// instrumentation site goes through these so a family has exactly one
// spelling and one help string, and hot paths pay only the cached-handle
// cost (function-local static) after first use.
//
// Funnel (counters, reads/pairs): the one tally of the mapping funnel,
// counted where each step runs (per chunk on the streaming drivers; no
// driver keeps a copy, so a stopped run has counted what it wrote).
//   gkgpu_candidates_seeded_total      seeding output, pre-pruning: what
//                                      the kernel emits, after the seed
//                                      vote where the caller runs it
//   gkgpu_shard_candidates_total       {shard} per index shard; only
//                                      emitted on multi-shard runs
//   gkgpu_candidates_voted_out_total   pigeonhole candidates the seed vote
//                                      cut; seeded + voted_out is the
//                                      pigeonhole count (the seeding
//                                      kernel, ReadMapper::SeedReads,
//                                      publishes all three on every
//                                      mapping path)
//   gkgpu_candidates_pruned_total      dropped by paired insert-window
//   gkgpu_filter_input_total           pairs presented to a filter
//   gkgpu_filter_accepts_total         {filter,tier} accepted (incl. bypass)
//   gkgpu_filter_rejects_total         {filter,tier} rejected
//   gkgpu_filter_bypasses_total        {filter,tier} bypassed (N bases /
//                                      over-threshold windows): accepted
//                                      without a filter verdict; the four
//                                      per FilterBatch or engine call
//   gkgpu_rescued_mates_total          SW mate rescues (paired)
//   gkgpu_reads_mapped_total / gkgpu_reads_unmapped_total
//                                      each read written, once: per chunk
//                                      by ReadChunkMapper::Map (`map
//                                      --reads`, the daemon), per mate by
//                                      the paired emitter (with pruned
//                                      and rescued), per call by MapReads;
//                                      skipped reads count in neither
//
// Stage latency (histograms, seconds, labeled {stage}):
//   gkgpu_stage_service_seconds        per-chunk stage work time of the
//                                      streaming drivers' chunk workers
//
// Daemon:
//   gkgpu_serve_sessions_total {state=accepted|completed|failed}
//   gkgpu_serve_reads_total / _skipped_reads_total / _records_total
//   gkgpu_serve_batches_total / _coalesced_batches_total (chunks)
//   gkgpu_serve_sessions_active (gauge)
//   gkgpu_serve_session_seconds (histogram)
#ifndef GKGPU_OBS_NAMES_HPP
#define GKGPU_OBS_NAMES_HPP

#include <string>

#include "obs/metrics.hpp"

namespace gkgpu::obs {

// Handles are trivially copyable; unlabeled accessors cache theirs in a
// function-local static, labeled ones resolve per call (registry mutex —
// negligible at batch granularity; truly hot sites keep the returned
// handle in a member).

// --- filter funnel ---------------------------------------------------
Counter CandidatesSeeded();
Counter ShardCandidates(const std::string& shard);
Counter CandidatesVotedOut();
Counter CandidatesPruned();
Counter FilterInput();
Counter FilterAccepts(const std::string& filter, const std::string& tier);
Counter FilterRejects(const std::string& filter, const std::string& tier);
Counter FilterBypasses(const std::string& filter, const std::string& tier);
Counter RescuedMates();
Counter ReadsMapped();
Counter ReadsUnmapped();

// --- mapping stages --------------------------------------------------
Histogram StageService(const std::string& stage);

// --- daemon ----------------------------------------------------------
Counter ServeSessions(const std::string& state);
Counter ServeReads();
Counter ServeSkippedReads();
Counter ServeRecords();
Counter ServeBatches();
Counter ServeCoalescedBatches();
Gauge ServeSessionsActive();
Histogram ServeSessionSeconds();

}  // namespace gkgpu::obs

#endif  // GKGPU_OBS_NAMES_HPP
