#include "mapper/seed_index.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace gkgpu {

SeedIndex SeedIndex::Build(const ReferenceSet& ref, const SeedConfig& config,
                           ThreadPool* pool) {
  if (config.k < 4 || config.k > 14) {
    throw std::invalid_argument("SeedIndex: k = " + std::to_string(config.k) +
                                " is outside [4, 14]");
  }
  SeedIndex idx;
  idx.plan_ = ShardPlan::Partition(ref, config.shard_max_bp);
  idx.shards_.reserve(idx.plan_.shard_count());
  for (std::size_t s = 0; s < idx.plan_.shard_count(); ++s) {
    const ShardInfo& shard = idx.plan_.shard(s);
    idx.shards_.emplace_back(
        ref.text().substr(static_cast<std::size_t>(shard.text_offset),
                          static_cast<std::size_t>(shard.text_length)),
        config.k, pool);
  }
  return idx;
}

SeedIndex SeedIndex::View(ShardPlan plan, std::vector<KmerIndex> shards) {
  if (plan.shard_count() != shards.size() || shards.empty()) {
    throw std::invalid_argument(
        "SeedIndex::View: shard count does not match the plan");
  }
  const int k = shards.front().k();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].k() != k ||
        shards[s].genome_length() !=
            static_cast<std::size_t>(plan.shard(s).text_length)) {
      throw std::invalid_argument(
          "SeedIndex::View: shard " + std::to_string(s) +
          " does not match the plan's slice");
    }
  }
  SeedIndex idx;
  idx.plan_ = std::move(plan);
  idx.shards_ = std::move(shards);
  return idx;
}

SeedIndex SeedIndex::Alias() const {
  std::vector<KmerIndex> shards;
  shards.reserve(shards_.size());
  for (const KmerIndex& s : shards_) {
    shards.push_back(
        KmerIndex::View(s.k(), s.genome_length(), s.offsets(), s.positions()));
  }
  return View(plan_, std::move(shards));
}

std::uint64_t SeedIndex::indexed_positions() const {
  std::uint64_t total = 0;
  for (const KmerIndex& s : shards_) total += s.indexed_kmers();
  return total;
}

}  // namespace gkgpu
