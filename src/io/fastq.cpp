#include "io/fastq.hpp"

#include <fstream>
#include <stdexcept>

namespace gkgpu {

void FastqParser::DropParsed() {
  buf_.erase(0, pos_);
  pos_ = 0;
}

void FastqParser::Append(std::string_view bytes) {
  DropParsed();
  buf_.append(bytes);
}

void FastqParser::Append(std::istream& in, std::size_t max) {
  DropParsed();
  const std::size_t old = buf_.size();
  buf_.resize(old + max);
  in.read(buf_.data() + old, static_cast<std::streamsize>(max));
  buf_.resize(old + static_cast<std::size_t>(in.gcount()));
}

void FastqParser::Finish() {
  if (!buf_.empty() && buf_.back() != '\n') buf_.push_back('\n');
  finished_ = true;
}

bool FastqParser::Next(FastqRecord* rec) {
  // header, sequence, separator, quality
  std::string_view lines[4];
  std::size_t pos = pos_;
  for (int n = 0; n < 4;) {
    const std::size_t eol = buf_.find('\n', pos);
    if (eol == std::string::npos) {
      if (finished_ && n > 0) {
        throw std::runtime_error("FASTQ: truncated record: " +
                                 std::string(lines[0]));
      }
      return false;  // the record's remaining lines are still to come
    }
    std::string_view line(buf_.data() + pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = eol + 1;
    if (n == 0) {
      if (line.empty()) {  // a blank line between records
        pos_ = pos;
        continue;
      }
      if (line[0] != '@') {
        throw std::runtime_error("FASTQ: expected '@' header, got: " +
                                 std::string(line));
      }
    }
    lines[n++] = line;
  }
  const std::string_view header = lines[0];
  if (lines[2].empty() || lines[2][0] != '+') {
    throw std::runtime_error("FASTQ: expected '+' separator: " +
                             std::string(header));
  }
  if (lines[1].empty()) {
    throw std::runtime_error("FASTQ: empty sequence: " + std::string(header));
  }
  if (lines[3].size() != lines[1].size()) {
    throw std::runtime_error("FASTQ: quality length mismatch: " +
                             std::string(header));
  }
  rec->name.assign(header.substr(1));
  rec->seq.assign(lines[1]);
  rec->qual.assign(lines[3]);
  pos_ = pos;
  return true;
}

bool FastqStreamReader::Next(FastqRecord* rec) {
  while (!parser_.Next(rec)) {
    if (!in_) return false;  // the parser has had every byte
    parser_.Append(in_, kReadBlockBytes);
    if (!in_) parser_.Finish();  // a short read: the stream ended
  }
  return true;
}

std::vector<FastqRecord> ReadFastq(std::istream& in) {
  std::vector<FastqRecord> records;
  FastqStreamReader reader(in);
  FastqRecord rec;
  while (reader.Next(&rec)) records.push_back(std::move(rec));
  return records;
}

std::vector<FastqRecord> ReadFastqFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("FASTQ: cannot open " + path);
  return ReadFastq(in);
}

void WriteFastq(std::ostream& out, const std::vector<FastqRecord>& records) {
  for (const auto& r : records) {
    out << '@' << r.name << '\n'
        << r.seq << '\n'
        << "+\n"
        << (r.qual.empty() ? std::string(r.seq.size(), 'I') : r.qual) << '\n';
  }
}

void WriteFastqFile(const std::string& path,
                    const std::vector<FastqRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("FASTQ: cannot open " + path);
  WriteFastq(out, records);
}

}  // namespace gkgpu
