// Persistence for candidate-pair data sets (the accuracy/throughput inputs)
// as tab-separated text: one "read<TAB>ref" line per pair, with a '#'
// header carrying the pair count and sequence length, so generated sets can
// be inspected, versioned and shared between benches.
#ifndef GKGPU_IO_PAIRSET_HPP
#define GKGPU_IO_PAIRSET_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/pairgen.hpp"

namespace gkgpu {

void WritePairSet(std::ostream& out, const std::vector<SequencePair>& pairs);
void WritePairSetFile(const std::string& path,
                      const std::vector<SequencePair>& pairs);

/// Throws std::runtime_error on a line without a tab, a pair whose read and
/// ref lengths differ, or a pair whose length differs from the first
/// pair's (naming the line).
std::vector<SequencePair> ReadPairSet(std::istream& in);
std::vector<SequencePair> ReadPairSetFile(const std::string& path);

}  // namespace gkgpu

#endif  // GKGPU_IO_PAIRSET_HPP
