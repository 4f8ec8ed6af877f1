// Myers' bit-vector algorithm for exact global edit distance (Myers 1999,
// with Hyyrö's block formulation).  This is the functional equivalent of
// Edlib's EDLIB_MODE_NW, which the paper uses as the accuracy ground truth:
// "we hold Edlib's global alignment results as the ground truth".
//
// It is the fallback of the mapper's verifier (BandedVerifier runs it on
// pairs of unequal length, budgets above 31 and targets without SSE2) and
// the oracle of its tests: BandedEditDistance is a thin call to
// MyersAligner::DistanceWithin.  Patterns up to 128 bp run on two unrolled
// 64-bit words held in registers; longer ones walk a block vector.
//
// MyersAligner keeps its pattern bitmask table across calls and clears
// only the entries a pattern set, so a verifier reused over millions of
// pairs neither reallocates nor re-zeroes the 256-symbol table per call.
#ifndef GKGPU_ALIGN_MYERS_HPP
#define GKGPU_ALIGN_MYERS_HPP

#include <cstdint>
#include <string_view>
#include <vector>

namespace gkgpu {

class MyersAligner {
 public:
  /// Exact global (NW) edit distance between pattern a and text b.
  int Distance(std::string_view a, std::string_view b);

  /// Edit distance if <= k, else -1.  Stops scanning the text once the
  /// last-row score minus the columns left exceeds k.
  int DistanceWithin(std::string_view a, std::string_view b, int k);

 private:
  struct Block {
    std::uint64_t pv;  // vertical positive deltas
    std::uint64_t mv;  // vertical negative deltas
  };

  /// Scans text b column by column against the pattern encoded in peq_.
  /// kWords > 0 fixes the block count at compile time (registers, fully
  /// unrolled); kWords == 0 walks ceil(m / 64) blocks in blocks_.
  template <int kWords>
  int Scan(int m, std::string_view b, int k);

  // peq_[c * nblocks + b]: bit i set when pattern[b*64 + i] == byte c.
  // All-zero between calls: each call clears exactly what it set.
  std::vector<std::uint64_t> peq_;
  std::vector<Block> blocks_;
};

/// One-shot convenience wrapper.
int MyersEditDistance(std::string_view a, std::string_view b);

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_MYERS_HPP
