// The sharded seeding index: one dense CSR KmerIndex (every k-mer
// position, the mrFAST layout) per chromosome-group shard (ShardPlan).
// Each shard's positions are local to its text slice and stay within the
// uint32 ceiling, so the concatenated genome may exceed 4 Gbp — the
// scale-out KmerIndex alone refuses.
//
// Shards build one after another, each across the caller's pool
// (KmerIndex's radix build); lookups run per shard and the mapper merges
// the translated global positions across shards before filtration.
// Because shard boundaries are chromosome boundaries and
// junction-spanning candidate windows are dropped at seeding time, the
// merged candidate set is byte-for-byte the one a monolithic index would
// seed.
#ifndef GKGPU_MAPPER_SEED_INDEX_HPP
#define GKGPU_MAPPER_SEED_INDEX_HPP

#include <cstdint>
#include <vector>

#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/shard.hpp"

namespace gkgpu {

struct SeedConfig {
  int k = 12;
  /// Shard byte budget; 0 means one shard per 4 Gbp (the uint32 position
  /// ceiling).  Small values force multi-shard layouts on small genomes —
  /// how the tests and CI exercise the sharded paths.
  std::int64_t shard_max_bp = 0;
};

class SeedIndex {
 public:
  /// Empty index (shard_count() == 0) — a placeholder to move into.
  SeedIndex() = default;

  /// Builds the per-shard indexes over `ref`, one shard at a time, each on
  /// `pool`'s threads and the caller (serially when `pool` is null; the
  /// arrays are the same either way).  Throws std::invalid_argument on a
  /// bad config or a chromosome exceeding the shard budget.
  static SeedIndex Build(const ReferenceSet& ref, const SeedConfig& config,
                         ThreadPool* pool = nullptr);

  /// Assembles a view-mode index from persisted parts (an mmap'd index
  /// file): the plan plus one view-mode KmerIndex per shard, which must
  /// all share `k` and match the plan's slice lengths.
  static SeedIndex View(ShardPlan plan, std::vector<KmerIndex> shards);

  /// A non-owning alias of this index: view-mode shards spanning the same
  /// storage, same plan.  The aliased index must outlive the
  /// alias — how a MappedIndexFile's index is handed to a ReadMapper
  /// without copying the CSR arrays.
  SeedIndex Alias() const;

  SeedIndex(SeedIndex&&) = default;
  SeedIndex& operator=(SeedIndex&&) = default;
  SeedIndex(const SeedIndex&) = delete;
  SeedIndex& operator=(const SeedIndex&) = delete;

  int k() const { return shards_.empty() ? 0 : shards_.front().k(); }
  const ShardPlan& plan() const { return plan_; }
  std::size_t shard_count() const { return shards_.size(); }
  const KmerIndex& shard(std::size_t i) const { return shards_[i]; }
  std::size_t genome_length() const {
    return static_cast<std::size_t>(plan_.total_length());
  }
  std::uint64_t indexed_positions() const;

 private:
  ShardPlan plan_;
  std::vector<KmerIndex> shards_;
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_SEED_INDEX_HPP
