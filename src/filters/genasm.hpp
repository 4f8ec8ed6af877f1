// GenASM-style pre-alignment filter (Senol Cali et al., MICRO 2020): an
// approximate string matching engine built on the Bitap / Wu-Manber
// shift-and algorithm modified for edit distance.  The paper's related-work
// section positions GenASM as the accuracy ceiling among hardware filters
// ("provides a 3.7x speedup over Shouji while improving the accuracy");
// algorithmically the bit-parallel NFA computes the threshold decision
// exactly, so this filter has zero false accepts and zero false rejects —
// the property the extended comparison bench demonstrates.
//
// Implemented as a multi-word global-alignment Bitap: e+1 state vectors
// R[0..e], R[d] bit i set iff edit(pattern[0..i], text[0..j]) <= d, with
// substitution / insertion / deletion transitions and empty-prefix carry
// bits for global (NW) semantics.
#ifndef GKGPU_FILTERS_GENASM_HPP
#define GKGPU_FILTERS_GENASM_HPP

#include "filters/filter.hpp"

namespace gkgpu {

class GenAsmFilter : public PreAlignmentFilter {
 public:
  std::string_view name() const override { return "GenASM"; }
  FilterResult Filter(std::string_view read, std::string_view ref,
                      int e) const override;
};

/// The underlying exact threshold test: edit(pattern, text) <= e, computed
/// with the bit-parallel Bitap NFA.  Exposed for tests and reuse.  Throws
/// std::invalid_argument unless 0 <= e <= kMaxErrorThreshold (its state
/// vectors are a fixed-size stack array).
bool BitapWithinEditDistance(std::string_view pattern, std::string_view text,
                             int e);

}  // namespace gkgpu

#endif  // GKGPU_FILTERS_GENASM_HPP
