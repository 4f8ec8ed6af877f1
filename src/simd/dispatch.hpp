// Runtime SIMD dispatch for the batch filtration kernels.
//
// The decision is made once per process from three inputs:
//   * whether the AVX2 kernels were compiled at all (non-x86 targets and
//     compilers without -mavx2 build the scalar layer only);
//   * whether the CPU reports AVX2 (CPUID, via __builtin_cpu_supports);
//   * the environment escape hatch GKGPU_NO_AVX2, which forces the scalar
//     path when set to anything non-empty other than "0" — e.g. to
//     reproduce a result on vector-less hardware or to bisect a suspected
//     SIMD divergence.  CI runs the whole suite once in each mode.
//
// Both paths are bit-identical by contract (asserted by
// tests/test_simd_batch.cpp), so dispatch is a pure performance choice.
#ifndef GKGPU_SIMD_DISPATCH_HPP
#define GKGPU_SIMD_DISPATCH_HPP

namespace gkgpu::simd {

enum class Level {
  kScalar,  // portable multi-word uint64_t lanes
  kAvx2,    // 4 pairs per instruction, one uint64_t lane each
};

/// True when the AVX2 kernels are present in this binary (compile-time).
bool Avx2Compiled();

/// True when the running CPU supports AVX2 (runtime CPUID).
bool Avx2Supported();

/// The level the batch kernels actually run at, resolved once per process
/// (AVX2 when compiled && supported && not disabled by GKGPU_NO_AVX2).
Level ActiveLevel();

inline const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

}  // namespace gkgpu::simd

#endif  // GKGPU_SIMD_DISPATCH_HPP
