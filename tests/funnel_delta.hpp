// The mapping funnel as one run changed it, read from the process-wide
// metrics registry (obs/names.hpp) before and after the run.  A test runs
// one driver at a time, so the deltas are that run's own counts.
#ifndef GKGPU_TESTS_FUNNEL_DELTA_HPP
#define GKGPU_TESTS_FUNNEL_DELTA_HPP

#include <string_view>

#include "obs/metrics.hpp"

namespace gkgpu {

struct FunnelDelta {
  double seeded = 0.0;     // gkgpu_candidates_seeded_total
  double voted_out = 0.0;  // gkgpu_candidates_voted_out_total
  double pruned = 0.0;     // gkgpu_candidates_pruned_total
  double filter_input = 0.0;
  double accepts = 0.0;  // bypasses included
  double rejects = 0.0;
  double rescued = 0.0;  // gkgpu_rescued_mates_total
  double mapped = 0.0;   // gkgpu_reads_mapped_total
  double unmapped = 0.0;
};

/// Runs `run` and returns what it added to the registry's funnel.  A run
/// that is meant to fail catches its own error, so the deltas still read.
template <typename Run>
FunnelDelta FunnelAcross(Run&& run) {
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  run();
  const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
  const auto d = [&](std::string_view family) {
    return after.Total(family) - before.Total(family);
  };
  FunnelDelta f;
  f.seeded = d("gkgpu_candidates_seeded_total");
  f.voted_out = d("gkgpu_candidates_voted_out_total");
  f.pruned = d("gkgpu_candidates_pruned_total");
  f.filter_input = d("gkgpu_filter_input_total");
  f.accepts = d("gkgpu_filter_accepts_total");
  f.rejects = d("gkgpu_filter_rejects_total");
  f.rescued = d("gkgpu_rescued_mates_total");
  f.mapped = d("gkgpu_reads_mapped_total");
  f.unmapped = d("gkgpu_reads_unmapped_total");
  return f;
}

}  // namespace gkgpu

#endif  // GKGPU_TESTS_FUNNEL_DELTA_HPP
