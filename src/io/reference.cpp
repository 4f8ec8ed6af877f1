#include "io/reference.hpp"

#include <algorithm>
#include <stdexcept>

namespace gkgpu {

namespace {

std::string SequenceName(std::string_view header) {
  const std::size_t ws = header.find_first_of(" \t");
  return std::string(header.substr(0, ws));
}

}  // namespace

ReferenceSet::ReferenceSet(std::string name, std::string sequence) {
  if (name.empty()) name = "chr1";
  chromosomes_.push_back(
      {std::move(name), 0, static_cast<std::int64_t>(sequence.size())});
  text_ = std::move(sequence);
  if (chromosomes_.back().length == 0) {
    throw std::runtime_error("reference: empty sequence for " +
                             chromosomes_.back().name);
  }
  ends_.push_back(chromosomes_.back().length);
  fingerprint_ = FingerprintText(text_);
}

ReferenceSet ReferenceSet::View(std::vector<ChromosomeInfo> chromosomes,
                                std::string_view text,
                                std::uint64_t fingerprint) {
  if (chromosomes.empty()) {
    throw std::invalid_argument("ReferenceSet::View: empty chromosome table");
  }
  std::int64_t cursor = 0;
  for (const ChromosomeInfo& c : chromosomes) {
    if (c.name.empty() || c.length <= 0 || c.offset != cursor) {
      throw std::invalid_argument(
          "ReferenceSet::View: chromosome table does not tile the text");
    }
    cursor += c.length;
  }
  if (cursor != static_cast<std::int64_t>(text.size())) {
    throw std::invalid_argument(
        "ReferenceSet::View: chromosome lengths sum to " +
        std::to_string(cursor) + " but the text holds " +
        std::to_string(text.size()) + " bases");
  }
  ReferenceSet set;
  set.view_ = text;
  set.chromosomes_ = std::move(chromosomes);
  for (const ChromosomeInfo& c : set.chromosomes_) {
    set.ends_.push_back(c.offset + c.length);
  }
  set.fingerprint_ = fingerprint;
  return set;
}

void ReferenceSet::Add(std::string name, std::string_view sequence) {
  if (view_.data() != nullptr) {
    throw std::logic_error(
        "ReferenceSet: cannot Add() to a view over an mmap'd index");
  }
  if (name.empty()) {
    throw std::runtime_error("reference: chromosome with empty name");
  }
  if (sequence.empty()) {
    throw std::runtime_error("reference: empty sequence for " + name);
  }
  for (const ChromosomeInfo& c : chromosomes_) {
    if (c.name == name) {
      throw std::runtime_error("reference: duplicate chromosome name " + name);
    }
  }
  chromosomes_.push_back({std::move(name),
                          static_cast<std::int64_t>(text_.size()),
                          static_cast<std::int64_t>(sequence.size())});
  text_.append(sequence);
  ends_.push_back(static_cast<std::int64_t>(text_.size()));
  // FNV is byte-sequential: continuing from the previous fingerprint
  // equals hashing the whole concatenation.
  fingerprint_ = FingerprintText(sequence, fingerprint_);
}

ReferenceSet ReferenceSet::FromFasta(const std::vector<FastaRecord>& records) {
  if (records.empty()) {
    throw std::runtime_error("reference: FASTA contains no sequences");
  }
  ReferenceSet set;
  for (const FastaRecord& r : records) {
    set.Add(SequenceName(r.name), r.seq);
  }
  return set;
}

ReferenceSet ReferenceSet::FromFastaFile(const std::string& path) {
  return FromFasta(ReadFastaFile(path));
}

int ReferenceSet::Locate(std::int64_t global_pos) const {
  if (global_pos < 0 || global_pos >= length()) return -1;
  // First chromosome starting after the position, then step back.
  const auto it = std::upper_bound(
      chromosomes_.begin(), chromosomes_.end(), global_pos,
      [](std::int64_t pos, const ChromosomeInfo& c) { return pos < c.offset; });
  return static_cast<int>(it - chromosomes_.begin()) - 1;
}

}  // namespace gkgpu
