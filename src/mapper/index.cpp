#include "mapper/index.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "encode/dna.hpp"

namespace gkgpu {

KmerIndex::KmerIndex(std::string_view genome, int k)
    : k_(k), genome_length_(genome.size()) {
  assert(k >= 4 && k <= 14);
  // The CSR payload stores genome positions as uint32 (see
  // KmerIndex::kMaxGenomeLength); a longer genome would silently truncate
  // every position past 4 GiB.  Refuse construction instead — genomes past
  // this bound are indexed by SeedIndex, one sub-4-Gbp KmerIndex per
  // chromosome-group shard (ShardPlan), looked up by shard.
  static_assert(
      std::is_same_v<decltype(positions_)::value_type, std::uint32_t>,
      "positions_ is the uint32 CSR payload kMaxGenomeLength guards; "
      "widening it instead of sharding doubles index memory — index "
      "larger genomes through SeedIndex's per-shard KmerIndexes");
  if (genome.size() > kMaxGenomeLength) {
    throw std::invalid_argument(
        "KmerIndex: genome length " + std::to_string(genome.size()) +
        " exceeds the uint32 position limit (" +
        std::to_string(kMaxGenomeLength) +
        " bases); index the reference through SeedIndex, which shards it "
        "by chromosome group (ShardPlan; --shard-max-bp on the CLI), "
        "instead of indexing the concatenated text");
  }
  const std::size_t buckets = std::size_t{1} << (2 * k);
  offsets_.assign(buckets + 1, 0);
  if (genome.size() < static_cast<std::size_t>(k)) {
    offsets_view_ = offsets_;
    positions_view_ = positions_;
    return;
  }
  const std::size_t n_kmers = genome.size() - static_cast<std::size_t>(k) + 1;

  // Pass 1: counts.  A rolling code with an "invalid until" marker skips
  // windows containing 'N' without rescanning.
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  std::uint64_t code = 0;
  std::size_t valid_from = 0;  // first position where the window is clean
  for (std::size_t i = 0; i < genome.size(); ++i) {
    const unsigned c = BaseToCode(genome[i]);
    if (c >= 4) {
      valid_from = i + 1;
      code = (code << 2) & mask;
      continue;
    }
    code = ((code << 2) | c) & mask;
    if (i + 1 >= static_cast<std::size_t>(k) &&
        i + 1 - static_cast<std::size_t>(k) >= valid_from) {
      ++offsets_[code + 1];
    }
  }
  for (std::size_t b = 0; b < buckets; ++b) offsets_[b + 1] += offsets_[b];
  positions_.resize(offsets_[buckets]);

  // Pass 2: fill.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  code = 0;
  valid_from = 0;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    const unsigned c = BaseToCode(genome[i]);
    if (c >= 4) {
      valid_from = i + 1;
      code = (code << 2) & mask;
      continue;
    }
    code = ((code << 2) | c) & mask;
    if (i + 1 >= static_cast<std::size_t>(k) &&
        i + 1 - static_cast<std::size_t>(k) >= valid_from) {
      const std::size_t start = i + 1 - static_cast<std::size_t>(k);
      positions_[cursor[code]++] = static_cast<std::uint32_t>(start);
    }
  }
  (void)n_kmers;
  offsets_view_ = offsets_;
  positions_view_ = positions_;
}

KmerIndex KmerIndex::View(int k, std::size_t genome_length,
                          std::span<const std::uint32_t> offsets,
                          std::span<const std::uint32_t> positions) {
  if (k < 4 || k > 14) {
    throw std::invalid_argument("KmerIndex::View: k out of range [4, 14]");
  }
  if (genome_length > kMaxGenomeLength) {
    throw std::invalid_argument(
        "KmerIndex::View: genome length exceeds the uint32 position limit");
  }
  const std::size_t buckets = std::size_t{1} << (2 * k);
  if (offsets.size() != buckets + 1) {
    throw std::invalid_argument(
        "KmerIndex::View: offset table holds " +
        std::to_string(offsets.size()) + " entries, expected 4^k + 1 = " +
        std::to_string(buckets + 1));
  }
  if (offsets.front() != 0 || offsets.back() != positions.size()) {
    throw std::invalid_argument(
        "KmerIndex::View: CSR offsets do not span the position array");
  }
  KmerIndex idx;
  idx.k_ = k;
  idx.genome_length_ = genome_length;
  idx.offsets_view_ = offsets;
  idx.positions_view_ = positions;
  return idx;
}

std::int64_t KmerIndex::Encode(std::string_view kmer) const {
  if (kmer.size() != static_cast<std::size_t>(k_)) return -1;
  std::uint64_t code = 0;
  for (const char ch : kmer) {
    const unsigned c = BaseToCode(ch);
    if (c >= 4) return -1;
    code = (code << 2) | c;
  }
  return static_cast<std::int64_t>(code);
}

std::span<const std::uint32_t> KmerIndex::Lookup(std::string_view kmer) const {
  return LookupCode(Encode(kmer));
}

std::span<const std::uint32_t> KmerIndex::LookupCode(std::int64_t code) const {
  if (code < 0 ||
      static_cast<std::size_t>(code) + 1 >= offsets_view_.size()) {
    return {};
  }
  const std::uint32_t b = offsets_view_[static_cast<std::size_t>(code)];
  const std::uint32_t e = offsets_view_[static_cast<std::size_t>(code) + 1];
  return positions_view_.subspan(b, e - b);
}

}  // namespace gkgpu
