// Activity-based power model.  nvprof-style sampling is emulated by
// recording one sample per simulated time slice: idle power between
// kernels, and idle + (TDP - idle) * activity while a kernel is resident.
// Activity folds in occupancy, warp execution efficiency and the kernel's
// arithmetic intensity, which is how the paper's observed behaviour
// (power grows with read length; encoding actor barely matters at 100 bp)
// emerges from the model.
#ifndef GKGPU_GPUSIM_POWER_HPP
#define GKGPU_GPUSIM_POWER_HPP

#include <cstdint>

#include "util/stats.hpp"

namespace gkgpu::gpusim {

struct PowerReport {
  double min_mw = 0.0;
  double max_mw = 0.0;
  double avg_mw = 0.0;
  std::uint64_t samples = 0;
};

class PowerModel {
 public:
  PowerModel(double idle_mw, double tdp_mw)
      : idle_mw_(idle_mw), tdp_mw_(tdp_mw) {}

  /// Records a kernel interval with `activity` in [0, 1] lasting
  /// `duration_s` simulated seconds; sampled at 10 ms granularity with a
  /// deterministic ramp (power rises as the device clocks up), so min/max
  /// spread resembles nvprof traces.
  void SampleKernel(double activity, double duration_s);

  /// Records an idle gap between kernels.
  void SampleIdle(double duration_s);

  PowerReport Report() const;

 private:
  void AddSamples(double mw, double duration_s);

  double idle_mw_;
  double tdp_mw_;
  gkgpu::RunningStat stat_;
};

}  // namespace gkgpu::gpusim

#endif  // GKGPU_GPUSIM_POWER_HPP
