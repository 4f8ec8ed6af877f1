// PairBlock: the batch-first, allocation-free unit of filtration work — a
// structure-of-arrays view of many (read, candidate-reference) pairs, the
// CPU mirror of the unified-memory layout the simulated device kernels
// consume (src/core/gatekeeper_kernel.hpp).  One block describes a whole
// kernel launch worth of pairs; per-pair virtual dispatch, per-pair
// string_view slicing and per-pair heap traffic all disappear behind it.
//
// A block comes in one of three shapes, matching the paper's input
// configurations:
//   * encoded    — host pre-encoded reads and refs, fixed stride, plus a
//                  per-pair bypass byte for undefined ('N') pairs;
//   * raw        — raw characters (the "encoding in device" design); the
//                  consumer encodes per pair in registers/scratch;
//   * candidates — a deduplicated encoded read table plus a
//                  (read_index, strand, ref_pos) candidate column against
//                  an encoded reference genome (the mrFAST integration of
//                  Sec. 3.5); consumers slice reference windows out of the
//                  genome and reorient reverse-strand reads in scratch.
//
// PairBlock is a non-owning view: the simulated device kernels see it over
// unified-memory buffers, the streaming drivers' chunk workers over a
// chunk's EncodedBatch read table and the engine's loaded reference
// encoding (CandidateBlock), and PairBlockStorage (below)
// owns host-side blocks for the batch filter API, tests and benches.
#ifndef GKGPU_FILTERS_PAIR_BLOCK_HPP
#define GKGPU_FILTERS_PAIR_BLOCK_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "encode/encoded.hpp"
#include "encode/revcomp.hpp"
#include "util/bitops.hpp"

namespace gkgpu {

/// Result slot written back per pair: the filtering decision ('1' accept /
/// '0' reject) and the approximated edit distance (Sec. 3.5).  Undefined
/// ('N') pairs skip filtration and are accepted with the bypassed flag.
struct PairResult {
  std::uint8_t accept = 0;
  std::uint8_t bypassed = 0;  // undefined ('N') pair skipped filtration
  std::uint16_t edits = 0;
};

/// The per-pair decision of one filtration (decoupled from PairResult so
/// scalar reference code can stay result-buffer-agnostic).
struct FilterResult {
  bool accept = true;
  /// The filter's cheap approximation of the edit distance (GateKeeper-GPU
  /// writes this next to the accept bit in the result buffer).
  int estimated_edits = 0;
};

inline PairResult MakePairResult(const FilterResult& r, bool bypassed) {
  PairResult out;
  out.accept = r.accept ? 1 : 0;
  out.bypassed = bypassed ? 1 : 0;
  out.edits = static_cast<std::uint16_t>(
      r.estimated_edits < 0
          ? 0
          : (r.estimated_edits > 0xFFFF ? 0xFFFF : r.estimated_edits));
  return out;
}

/// The bypass-accept slot an undefined pair receives on every path.
inline PairResult BypassedPairResult() { return PairResult{1, 1, 0}; }

/// One candidate mapping: which read, where its candidate reference
/// segment starts on the genome, and which strand the read matches on.
/// strand 1 means the *reverse complement* of the read is compared against
/// the forward reference window — the strand bit travels with the
/// candidate so consumers can reorient the encoded read in scratch and
/// filtration still slices windows from the encoded reference with no
/// per-candidate strings anywhere.  `reserved` names the padding
/// byte after the strand so callers can brace-initialize all four members;
/// nothing reads it, and sizeof stays 16.
struct CandidatePair {
  std::uint32_t read_index = 0;
  std::uint8_t strand = 0;    // 0 = forward, 1 = reverse complement
  std::uint8_t reserved = 0;  // padding; always 0, never read
  std::int64_t ref_pos = 0;
};

struct PairBlock {
  /// Pairs in the block.
  std::size_t size = 0;
  /// Bases per sequence (uniform across the block) and its encoded stride.
  int length = 0;
  int words_per_seq = 0;

  // --- Shape: encoded ----------------------------------------------------
  /// Encoded reads at stride words_per_seq: one row per pair (encoded /
  /// raw shapes) or one row per table entry (candidates shape).
  const Word* reads_enc = nullptr;
  /// Encoded reference segments, one row per pair (encoded shape only).
  const Word* refs_enc = nullptr;
  /// Undefined-pair flags: per pair (encoded shape) or per read-table
  /// entry (candidates shape).  Null = no undefined sequences.
  const std::uint8_t* bypass = nullptr;

  // --- Shape: raw --------------------------------------------------------
  const char* raw_reads = nullptr;  // size * length characters
  const char* raw_refs = nullptr;

  // --- Shape: candidates -------------------------------------------------
  const CandidatePair* candidates = nullptr;
  const Word* ref_words = nullptr;   // encoded genome
  const Word* ref_n_mask = nullptr;  // genome 'N' positions, 1 bit/base
  std::int64_t ref_len = 0;

  bool candidate_shape() const { return candidates != nullptr; }
  bool raw_shape() const { return raw_reads != nullptr; }
};

/// A candidates-shape block: `size` candidates whose read_index points into
/// the encoded read table `reads`, with windows sliced from `ref`.
inline PairBlock CandidateBlock(const EncodedBatch& reads,
                                const ReferenceEncodingView& ref,
                                const CandidatePair* candidates,
                                std::size_t size) {
  PairBlock b;
  b.size = size;
  b.length = reads.length;
  b.words_per_seq = reads.words_per_seq;
  b.reads_enc = reads.words.data();
  b.bypass = reads.has_n.data();
  b.candidates = candidates;
  b.ref_words = ref.words.data();
  b.ref_n_mask = ref.n_mask.data();
  b.ref_len = ref.length;
  return b;
}

/// Pairs [begin, end) of `block` as a block of the same shape; a
/// candidates-shape slice keeps the whole read table and genome.
inline PairBlock SliceBlock(PairBlock block, std::size_t begin,
                            std::size_t end) {
  block.size = end - begin;
  if (block.candidate_shape()) {
    block.candidates += begin;
  } else if (block.raw_shape()) {
    const std::size_t off = begin * static_cast<std::size_t>(block.length);
    block.raw_reads += off;
    block.raw_refs += off;
  } else {
    const std::size_t off =
        begin * static_cast<std::size_t>(block.words_per_seq);
    block.reads_enc += off;
    block.refs_enc += off;
    if (block.bypass != nullptr) block.bypass += begin;
  }
  return block;
}

/// One pair materialized out of a block: encoded read/ref pointers (into
/// the block or into caller scratch) plus the undefined-pair flag.
struct BlockPairView {
  const Word* read = nullptr;
  const Word* ref = nullptr;
  bool bypass = false;
};

/// Materializes pair `i` of `block` in the encoded domain, using
/// `read_scratch` / `ref_scratch` (kMaxEncodedWords each) only when the
/// shape requires it: raw pairs are encoded, candidate windows are sliced
/// from the encoded genome, reverse-strand reads are reoriented.  This is
/// exactly the per-thread preamble of the device kernels; batch consumers
/// call it per pair and run whatever mask pipeline they implement.
inline BlockPairView LoadBlockPair(const PairBlock& block, std::size_t i,
                                   Word* read_scratch, Word* ref_scratch) {
  BlockPairView v;
  if (block.candidate_shape()) {
    const CandidatePair c = block.candidates[i];
    v.bypass = (block.bypass != nullptr && block.bypass[c.read_index] != 0) ||
               RangeHasUnknownRaw(block.ref_n_mask, block.ref_len, c.ref_pos,
                                  block.length);
    ExtractSegmentRaw(block.ref_words, block.ref_len, c.ref_pos, block.length,
                      ref_scratch);
    v.ref = ref_scratch;
    const Word* read = block.reads_enc +
                       static_cast<std::size_t>(c.read_index) *
                           static_cast<std::size_t>(block.words_per_seq);
    if (c.strand != 0) {
      // Reverse-strand candidate: reorient the encoded read in scratch
      // (registers on a real GPU) — the read buffer itself stays forward,
      // so one bus crossing serves both strands.
      ReverseComplementEncoded(read, block.length, read_scratch);
      read = read_scratch;
    }
    v.read = read;
    return v;
  }
  if (block.raw_shape()) {
    const std::size_t off = i * static_cast<std::size_t>(block.length);
    const bool read_n = EncodeSequence(
        std::string_view(block.raw_reads + off,
                         static_cast<std::size_t>(block.length)),
        read_scratch);
    const bool ref_n = EncodeSequence(
        std::string_view(block.raw_refs + off,
                         static_cast<std::size_t>(block.length)),
        ref_scratch);
    v.read = read_scratch;
    v.ref = ref_scratch;
    v.bypass = read_n || ref_n;
    return v;
  }
  const std::size_t off =
      i * static_cast<std::size_t>(block.words_per_seq);
  v.read = block.reads_enc + off;
  v.ref = block.refs_enc + off;
  v.bypass = block.bypass != nullptr && block.bypass[i] != 0;
  return v;
}

/// Owning host-side block builder: contiguous encoded reads/refs plus the
/// per-pair bypass column, appended pair by pair.  Used by the batch
/// filter API's callers (benches, tests, CPU baselines); the engine views
/// its unified-memory buffers directly instead.
class PairBlockStorage {
 public:
  PairBlockStorage() = default;
  explicit PairBlockStorage(int length) { Reset(length); }

  /// Clears the block and fixes the per-pair length.
  void Reset(int length);

  /// Appends one (read, ref) pair (both exactly `length` bases).  When
  /// `mark_undefined` is set, a pair containing any non-ACGT base gets its
  /// bypass bit — the GateKeeper-GPU Sec. 3.3 design choice; builders for
  /// the FPGA-style accuracy baselines pass false and such pairs filter on
  /// their 'A'-substituted encoding instead.
  void Add(std::string_view read, std::string_view ref,
           bool mark_undefined = true);

  std::size_t size() const { return bypass_.size(); }
  int length() const { return length_; }

  /// A view of the current contents; invalidated by Add/Reset.
  PairBlock view() const;

 private:
  int length_ = 0;
  int words_per_seq_ = 0;
  std::vector<Word> reads_;
  std::vector<Word> refs_;
  std::vector<std::uint8_t> bypass_;
};

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_PAIR_BLOCK_HPP
