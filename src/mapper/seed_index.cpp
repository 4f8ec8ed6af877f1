#include "mapper/seed_index.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace gkgpu {

namespace {

KmerIndex BuildShard(const ReferenceSet& ref, const ShardInfo& shard,
                     const SeedConfig& config) {
  return KmerIndex(
      ref.text().substr(static_cast<std::size_t>(shard.text_offset),
                        static_cast<std::size_t>(shard.text_length)),
      config.k);
}

}  // namespace

SeedIndex SeedIndex::Build(const ReferenceSet& ref, const SeedConfig& config,
                           unsigned threads) {
  if (config.k < 4 || config.k > 14) {
    throw std::invalid_argument("SeedIndex: k out of range [4, 14]");
  }
  SeedIndex idx;
  idx.plan_ = ShardPlan::Partition(ref, config.shard_max_bp);
  const std::size_t n = idx.plan_.shard_count();
  idx.shards_.resize(n);

  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  const std::size_t workers = std::min<std::size_t>(threads, n);
  if (workers <= 1) {
    for (std::size_t s = 0; s < n; ++s) {
      idx.shards_[s] = BuildShard(ref, idx.plan_.shard(s), config);
    }
    return idx;
  }

  // Concurrent shard builds: workers claim shards off an atomic cursor;
  // the first exception wins and the rest of the queue drains unbuilt.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
        if (s >= n) return;
        try {
          idx.shards_[s] = BuildShard(ref, idx.plan_.shard(s), config);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          next.store(n, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
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
