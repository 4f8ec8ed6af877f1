#include "simd/dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace gkgpu::simd {

bool Avx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level ActiveLevel() {
  static const Level level = [] {
    // The escape hatch: set and neither empty nor "0" means disabled.
    const char* no_avx2 = std::getenv("GKGPU_NO_AVX2");
    const bool disabled = no_avx2 != nullptr && *no_avx2 != '\0' &&
                          std::strcmp(no_avx2, "0") != 0;
    if (disabled || !Avx2Compiled() || !Avx2Supported()) return Level::kScalar;
    return Level::kAvx2;
  }();
  return level;
}

}  // namespace gkgpu::simd
