// Minimal FASTQ reader/writer for simulated read sets.
#ifndef GKGPU_IO_FASTQ_HPP
#define GKGPU_IO_FASTQ_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace gkgpu {

struct FastqRecord {
  std::string name;
  std::string seq;
  std::string qual;  // same length as seq
};

/// Incremental FASTQ parser for the streaming drivers: pulls one record
/// or one bounded chunk at a time, so a read set never has to be resident
/// in memory all at once.  The whole-file readers below are built on it.
class FastqStreamReader {
 public:
  explicit FastqStreamReader(std::istream& in) : in_(in) {}

  /// Parses the next record into *rec; false at end of stream.  Throws on
  /// malformed input (same diagnostics as ReadFastq).
  bool Next(FastqRecord* rec);

 private:
  std::istream& in_;
};

std::vector<FastqRecord> ReadFastq(std::istream& in);
std::vector<FastqRecord> ReadFastqFile(const std::string& path);

void WriteFastq(std::ostream& out, const std::vector<FastqRecord>& records);
void WriteFastqFile(const std::string& path,
                    const std::vector<FastqRecord>& records);

}  // namespace gkgpu

#endif  // GKGPU_IO_FASTQ_HPP
