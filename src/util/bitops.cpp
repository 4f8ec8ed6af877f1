#include "util/bitops.hpp"

#include <stdexcept>
#include <string>

namespace gkgpu {

void CheckFilterReadLength(int length, const char* where) {
  if (length < 1 || length > kMaxReadLength) {
    throw std::invalid_argument(
        std::string(where) + ": read length " + std::to_string(length) +
        " is outside the filter kernels' capacity of 1 to " +
        std::to_string(kMaxReadLength) + " bases");
  }
}

void CheckSequenceLength(std::size_t length, int expected, std::size_t index,
                         const char* where) {
  if (length != static_cast<std::size_t>(expected)) {
    throw std::invalid_argument(
        std::string(where) + ": sequence " + std::to_string(index) +
        " has length " + std::to_string(length) + ", expected " +
        std::to_string(expected) + " (one read length per batch)");
  }
}

}  // namespace gkgpu
