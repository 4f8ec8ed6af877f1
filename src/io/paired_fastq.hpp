// Paired-end FASTQ input: R1/R2 mate pairs from two parallel files or one
// interleaved stream, with strict pairing validation — a truncated mate
// file or out-of-sync record names is a data-corruption signal and raises
// a clean error instead of silently mis-pairing reads.
#ifndef GKGPU_IO_PAIRED_FASTQ_HPP
#define GKGPU_IO_PAIRED_FASTQ_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "io/fastq.hpp"

namespace gkgpu {

class PairedFastqReader {
 public:
  /// Dual-file mode: record i of `r1` pairs with record i of `r2`.
  PairedFastqReader(std::istream& r1, std::istream& r2);

  /// Interleaved mode: records 2i and 2i+1 of one stream form pair i,
  /// both read through one FastqStreamReader (it reads ahead).
  explicit PairedFastqReader(std::istream& interleaved);

  /// Parses the next pair; false at a clean end of stream.  Throws
  /// std::runtime_error when one mate stream ends before the other
  /// (truncated mate file), when an interleaved stream holds an odd
  /// record count, or when the mates' names disagree.
  bool Next(FastqRecord* r1, FastqRecord* r2);

  std::uint64_t pairs_read() const { return pairs_; }

  /// The read name with any mate suffix ("/1", "/2", ".1", ".2") and
  /// description (first whitespace onward) removed.
  static std::string_view BaseName(std::string_view name);

  /// True when two mate names refer to the same template.
  static bool NamesMatch(std::string_view r1, std::string_view r2) {
    return BaseName(r1) == BaseName(r2);
  }

 private:
  FastqStreamReader first_;
  std::optional<FastqStreamReader> second_;  // none in interleaved mode
  std::uint64_t pairs_ = 0;
};

}  // namespace gkgpu

#endif  // GKGPU_IO_PAIRED_FASTQ_HPP
