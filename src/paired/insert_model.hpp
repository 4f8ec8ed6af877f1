// Online insert-size model: mean and standard deviation of the fragment
// length, learned from confident concordant pairs as mapping progresses
// (Welford's streaming moments — no buffering, deterministic in
// observation order).  Until enough pairs have been observed the mapper
// falls back to its configured [read_length, max_insert] window; once
// fitted, the model tightens pair scoring and the mate-rescue search
// window to mean ± 4 sigma.
#ifndef GKGPU_PAIRED_INSERT_MODEL_HPP
#define GKGPU_PAIRED_INSERT_MODEL_HPP

#include <cstdint>

namespace gkgpu {

/// Confident pairs required before the fitted model replaces the
/// [read_length, max_insert] fallback window.
inline constexpr std::uint64_t kInsertModelMinObservations = 64;

class InsertSizeModel {
 public:
  void Observe(double insert) {
    ++count_;
    const double delta = insert - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (insert - mean_);
  }

  /// Enough confident pairs seen to trust mean()/sigma() over the
  /// configured fallback window.
  bool fitted() const { return count_ >= kInsertModelMinObservations; }

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }

  /// Sample standard deviation; 0 before two observations.
  double sigma() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace gkgpu

#endif  // GKGPU_PAIRED_INSERT_MODEL_HPP
