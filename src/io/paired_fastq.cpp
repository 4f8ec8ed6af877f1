#include "io/paired_fastq.hpp"

#include <stdexcept>

namespace gkgpu {

PairedFastqReader::PairedFastqReader(std::istream& r1, std::istream& r2)
    : first_(r1), second_(std::in_place, r2) {}

PairedFastqReader::PairedFastqReader(std::istream& interleaved)
    : first_(interleaved) {}

std::string_view PairedFastqReader::BaseName(std::string_view name) {
  const std::size_t ws = name.find_first_of(" \t");
  if (ws != std::string_view::npos) name = name.substr(0, ws);
  if (name.size() >= 2) {
    const char tag = name[name.size() - 1];
    const char sep = name[name.size() - 2];
    if ((tag == '1' || tag == '2') && (sep == '/' || sep == '.')) {
      name = name.substr(0, name.size() - 2);
    }
  }
  return name;
}

bool PairedFastqReader::Next(FastqRecord* r1, FastqRecord* r2) {
  if (!first_.Next(r1)) {
    // R1 is done; R2 must be too, or the mate files are out of sync.
    FastqRecord extra;
    if (second_ && second_->Next(&extra)) {
      throw std::runtime_error(
          "paired FASTQ: R1 ended after " + std::to_string(pairs_) +
          " records but R2 continues with '" + extra.name +
          "' (truncated R1 / mate files out of sync)");
    }
    return false;
  }
  if (!(second_ ? *second_ : first_).Next(r2)) {
    throw std::runtime_error(
        !second_
            ? "paired FASTQ: interleaved stream holds an odd record count — "
              "read '" + r1->name + "' has no mate"
            : "paired FASTQ: R2 ended after " + std::to_string(pairs_) +
              " records but R1 continues with '" + r1->name +
              "' (truncated R2 / mate files out of sync)");
  }
  if (!NamesMatch(r1->name, r2->name)) {
    throw std::runtime_error("paired FASTQ: mate name mismatch at pair " +
                             std::to_string(pairs_) + ": '" + r1->name +
                             "' vs '" + r2->name + "'");
  }
  ++pairs_;
  return true;
}

}  // namespace gkgpu
