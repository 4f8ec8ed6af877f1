// FASTQ input and output.  FastqParser is the one FASTQ parser: files
// (FastqStreamReader, ReadFastq) and the daemon's socket frames
// (serve/server.cpp) push bytes into it, split anywhere, and take the
// same records with the same errors.
#ifndef GKGPU_IO_FASTQ_HPP
#define GKGPU_IO_FASTQ_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gkgpu {

struct FastqRecord {
  std::string name;
  std::string seq;
  std::string qual;  // same length as seq
};

/// Incremental FASTQ parser over a byte buffer: Append bytes split at any
/// offset, Finish at end of input, and Next yields each complete record.
/// Blank lines between records are skipped, one '\r' ends a CRLF line, a
/// quality line may start with '@' (a record is four lines), and the last
/// line may lack its '\n'.
class FastqParser {
 public:
  /// Appends input bytes, after dropping the bytes of the records Next
  /// already returned (so the buffer holds at most one partial record
  /// beyond what was appended).
  void Append(std::string_view bytes);
  /// Appends at most `max` bytes read from `in` straight into the buffer,
  /// after the same drop.
  void Append(std::istream& in, std::size_t max);

  /// No more input: a final line without its '\n' is complete, and a
  /// record still missing lines is truncated.
  void Finish();

  /// Parses the next complete record into *rec; false when it needs more
  /// input (or, after Finish, at the end).  Throws std::runtime_error on a
  /// line that is not an '@' header, a missing '+' separator, an empty
  /// sequence, a quality line of another length, and, after Finish, a
  /// truncated record; the records before it are returned first.
  bool Next(FastqRecord* rec);

 private:
  void DropParsed();

  std::string buf_;
  std::size_t pos_ = 0;  // first byte not yet returned
  bool finished_ = false;
};

/// Pulls records from a stream one at a time through FastqParser, reading
/// at most kReadBlockBytes per read, so a read set never has to be
/// resident in memory all at once.  It reads ahead: records come only
/// through this reader once it is made.
class FastqStreamReader {
 public:
  static constexpr std::size_t kReadBlockBytes = 16u << 10;

  explicit FastqStreamReader(std::istream& in) : in_(in) {}

  /// Parses the next record into *rec; false at end of stream.  Throws as
  /// FastqParser::Next does.
  bool Next(FastqRecord* rec);

 private:
  std::istream& in_;
  FastqParser parser_;
};

std::vector<FastqRecord> ReadFastq(std::istream& in);
std::vector<FastqRecord> ReadFastqFile(const std::string& path);

void WriteFastq(std::ostream& out, const std::vector<FastqRecord>& records);
void WriteFastqFile(const std::string& path,
                    const std::vector<FastqRecord>& records);

}  // namespace gkgpu

#endif  // GKGPU_IO_FASTQ_HPP
