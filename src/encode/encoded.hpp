// 2-bit sequence encoding: single sequences, batches, and whole references
// with 'N' tracking and arbitrary-offset segment extraction.  This is the
// host-side ("encoding in host") preprocessing stage of GateKeeper-GPU; the
// same routines are reused by the simulated device kernel for the
// "encoding in device" configuration.
#ifndef GKGPU_ENCODE_ENCODED_HPP
#define GKGPU_ENCODE_ENCODED_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/dna.hpp"
#include "util/bitops.hpp"

namespace gkgpu {

class ThreadPool;

/// Encodes `seq` into `out` (EncodedWords(seq.size()) words, zero-padded).
/// Unknown bases encode as A (callers must consult ContainsUnknown or the
/// n-mask; GateKeeper bypasses such pairs).  Returns true if any unknown
/// base was seen.
bool EncodeSequence(std::string_view seq, Word* out);

/// Inverse of EncodeSequence (for tests and debugging output).
std::string DecodeSequence(const Word* enc, int length);

/// A fixed-stride batch of encoded sequences plus per-sequence 'N' flags —
/// the layout of the read buffer GateKeeper-GPU keeps in unified memory.
struct EncodedBatch {
  int length = 0;          // bases per sequence
  int words_per_seq = 0;   // EncodedWords(length)
  std::vector<Word> words;
  std::vector<std::uint8_t> has_n;

  std::size_t size() const { return has_n.size(); }
  const Word* Sequence(std::size_t i) const {
    return words.data() + i * static_cast<std::size_t>(words_per_seq);
  }
  Word* Sequence(std::size_t i) {
    return words.data() + i * static_cast<std::size_t>(words_per_seq);
  }
};

/// Encodes a batch of equal-length sequences; throws std::invalid_argument
/// when `length` exceeds the filter kernels' capacity
/// (CheckFilterReadLength) or a sequence is not `length` bases long
/// (CheckSequenceLength).
EncodedBatch EncodeBatch(std::span<const std::string> seqs, int length);
EncodedBatch EncodeBatch(std::span<const std::string_view> seqs, int length);

/// Raw-pointer versions of the reference-segment operations, callable from
/// device-kernel code that only sees unified-memory pointers.
bool RangeHasUnknownRaw(const Word* n_mask, std::int64_t ref_len,
                        std::int64_t start, int len);
void ExtractSegmentRaw(const Word* ref_words, std::int64_t ref_len,
                       std::int64_t start, int len, Word* out);

/// Non-owning view of a reference encoding — spans into externally owned
/// word arrays (an mmap'd index file or a ReferenceEncoding's vectors).
/// Lets the mapper (ReadMapper::encoding()) and the engine use a persisted
/// encoding without re-encoding the FASTA text.
struct ReferenceEncodingView {
  std::int64_t length = 0;
  std::span<const Word> words;   // 2-bit encoding, 16 bases/word
  std::span<const Word> n_mask;  // 1 bit/base, MSB-first
};

/// A whole reference genome, 2-bit encoded once up front, with a 1-bit-per-
/// base mask of 'N' positions so segments overlapping unknown bases can be
/// given a free pass without re-reading the text.
struct ReferenceEncoding {
  std::int64_t length = 0;
  std::vector<Word> words;   // 2-bit encoding, 16 bases/word
  std::vector<Word> n_mask;  // 1 bit/base, MSB-first

  ReferenceEncodingView view() const { return {length, words, n_mask}; }

  /// True if any base in [start, start+len) is unknown or out of range.
  bool RangeHasUnknown(std::int64_t start, int len) const;

  /// Extracts `length` bases starting at `start` (must be in range) into an
  /// encoded word array, performing the cross-word bit realignment that the
  /// kernel does when pulling a candidate segment out of unified memory.
  void ExtractSegment(std::int64_t start, int length, Word* out) const;
};

/// Encodes a reference text; `pool` parallelizes over 16-base chunks.
ReferenceEncoding EncodeReference(std::string_view text,
                                  ThreadPool* pool = nullptr);

}  // namespace gkgpu

#endif  // GKGPU_ENCODE_ENCODED_HPP
