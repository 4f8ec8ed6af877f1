// Brute-force oracles of the seeding kernel (ReadMapper::SeedReads): the
// pigeonhole candidates of a read by string search over the whole text,
// and the seed vote over them by string comparison.  Both lay candidates
// out as CollectCandidatesOriented emits them, as (position, strand).
#ifndef GKGPU_TESTS_SEED_ORACLE_HPP
#define GKGPU_TESTS_SEED_ORACLE_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "encode/revcomp.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"

namespace gkgpu {

/// Every pigeonhole seed k-mer of `read` and of its reverse complement,
/// searched by brute force over the whole text, under the seeder's window
/// rules: in bounds and inside one chromosome.  Laid out as
/// CollectCandidatesOriented emits candidates.
inline std::vector<std::pair<std::int64_t, int>> OracleCandidates(
    const ReferenceSet& ref, const MapperConfig& cfg, const std::string& read) {
  const std::string_view text = ref.text();
  const std::int64_t L = static_cast<std::int64_t>(read.size());
  const int n_seeds = std::min(cfg.error_threshold + 1,
                               static_cast<int>(read.size()) / cfg.k);
  std::vector<std::pair<std::int64_t, int>> out;
  for (int strand = 0; strand < 2; ++strand) {
    const std::string seq = strand == 0 ? read : ReverseComplement(read);
    std::vector<std::int64_t> starts;
    for (int s = 0; s < n_seeds; ++s) {
      const std::string kmer = seq.substr(static_cast<std::size_t>(s * cfg.k),
                                          static_cast<std::size_t>(cfg.k));
      if (kmer.find_first_not_of("ACGT") != std::string::npos) continue;
      for (std::size_t hit = text.find(kmer); hit != std::string_view::npos;
           hit = text.find(kmer, hit + 1)) {
        const std::int64_t start = static_cast<std::int64_t>(hit) - s * cfg.k;
        for (const ChromosomeInfo& c : ref.chromosomes()) {
          if (start >= c.offset && start + L <= c.offset + c.length) {
            starts.push_back(start);
          }
        }
      }
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    for (const std::int64_t p : starts) out.emplace_back(p, strand);
  }
  return out;
}

/// The seed vote over `pigeonhole` (OracleCandidates of `read`) by string
/// comparison: a window keeps its place if at least n_valid - e of the
/// read's first floor(L/k) (at most 64) non-overlapping N-free k-mers occur
/// inside it within +-e of their offset, or if that threshold is <= 1.
inline std::vector<std::pair<std::int64_t, int>> VotedOracleCandidates(
    const ReferenceSet& ref, const MapperConfig& cfg, const std::string& read,
    const std::vector<std::pair<std::int64_t, int>>& pigeonhole) {
  const std::string_view text = ref.text();
  const int k = cfg.k;
  const int e = cfg.error_threshold;
  const std::int64_t L = static_cast<std::int64_t>(read.size());
  const int n = std::min(static_cast<int>(read.size()) / k, 64);
  std::vector<std::pair<std::int64_t, int>> out;
  for (const auto& [start, strand] : pigeonhole) {
    const std::string seq = strand == 0 ? read : ReverseComplement(read);
    int valid = 0;
    int support = 0;
    for (int s = 0; s < n; ++s) {
      const std::string_view kmer =
          std::string_view(seq).substr(static_cast<std::size_t>(s * k),
                                       static_cast<std::size_t>(k));
      if (kmer.find_first_not_of("ACGT") != std::string_view::npos) continue;
      ++valid;
      for (int d = -e; d <= e; ++d) {
        const std::int64_t at = start + s * k + d;
        if (at >= start && at + k <= start + L &&
            text.substr(static_cast<std::size_t>(at),
                        static_cast<std::size_t>(k)) == kmer) {
          ++support;
          break;
        }
      }
    }
    if (valid - e <= 1 || support >= valid - e) out.emplace_back(start, strand);
  }
  return out;
}

}  // namespace gkgpu

#endif  // GKGPU_TESTS_SEED_ORACLE_HPP
