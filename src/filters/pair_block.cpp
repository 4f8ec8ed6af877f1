#include "filters/pair_block.hpp"

#include <cassert>

namespace gkgpu {

void PairBlockStorage::Reset(int length) {
  CheckFilterReadLength(length, "PairBlockStorage");
  length_ = length;
  words_per_seq_ = EncodedWords(length);
  reads_.clear();
  refs_.clear();
  bypass_.clear();
}

void PairBlockStorage::Add(std::string_view read, std::string_view ref,
                           bool mark_undefined) {
  assert(length_ > 0);
  CheckSequenceLength(read.size(), length_, size(), "PairBlockStorage::Add");
  CheckSequenceLength(ref.size(), length_, size(), "PairBlockStorage::Add");
  const std::size_t off = reads_.size();
  reads_.resize(off + static_cast<std::size_t>(words_per_seq_));
  refs_.resize(off + static_cast<std::size_t>(words_per_seq_));
  const bool read_n = EncodeSequence(read, reads_.data() + off);
  const bool ref_n = EncodeSequence(ref, refs_.data() + off);
  bypass_.push_back(mark_undefined && (read_n || ref_n) ? 1 : 0);
}

PairBlock PairBlockStorage::view() const {
  PairBlock b;
  b.size = bypass_.size();
  b.length = length_;
  b.words_per_seq = words_per_seq_;
  b.reads_enc = reads_.data();
  b.refs_enc = refs_.data();
  b.bypass = bypass_.data();
  return b;
}

}  // namespace gkgpu
