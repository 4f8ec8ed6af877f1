#include "mapper/index.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "encode/dna.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {

namespace {

// A code's partition is its first kPartitionBases bases (top 8 bits).
constexpr int kPartitionBases = 4;
constexpr std::size_t kPartitions = std::size_t{1} << (2 * kPartitionBases);
// The partition step's genome slices: at most kMaxSlices, each at least
// kMinSliceKmers k-mer starts long (short genomes take fewer slices).
constexpr std::size_t kMaxSlices = 256;
constexpr std::size_t kMinSliceKmers = std::size_t{1} << 16;

void CheckK(const char* who, int k) {
  if (k < 4 || k > 14) {
    throw std::invalid_argument(std::string(who) + ": k = " +
                                std::to_string(k) + " is outside [4, 14]");
  }
}

/// Calls fn(start, code) for each k-mer starting in [begin, end) that holds
/// no unknown base, in ascending order of start.  The caller guarantees
/// end + k - 1 <= genome.size().
template <typename Fn>
void ForEachKmer(std::string_view genome, int k, std::size_t begin,
                 std::size_t end, Fn&& fn) {
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  std::uint64_t code = 0;
  std::size_t clean = 0;  // known bases ending at i
  for (std::size_t i = begin; i + 1 < end + kk; ++i) {
    const unsigned c = BaseCode(genome[i]);
    if (c >= 4) {
      clean = 0;
      continue;
    }
    code = ((code << 2) | c) & mask;
    if (++clean >= kk) fn(i + 1 - kk, code);
  }
}

/// fn(i) for every i in [0, n): on the pool's threads and the caller, or
/// serially without a pool.
void ParallelEach(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  const auto run = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, n, 1, run);
  } else {
    run(0, n);
  }
}

}  // namespace

KmerIndex::KmerIndex(std::string_view genome, int k, ThreadPool* pool)
    : k_(k), genome_length_(genome.size()) {
  CheckK("KmerIndex", k);
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
  const std::size_t kk = static_cast<std::size_t>(k);
  const int low_bits = 2 * (k - kPartitionBases);
  const std::size_t sub_buckets = std::size_t{1} << low_bits;
  offsets_.resize(kPartitions * sub_buckets + 1);
  const std::size_t n_kmers = genome.size() >= kk ? genome.size() - kk + 1 : 0;

  // Step 1, partition.  `cursor` holds each slice's per-partition counts,
  // then (partition-major, slice-minor) where its scatter starts.
  const std::size_t slice_len =
      std::max(kMinSliceKmers, (n_kmers + kMaxSlices - 1) / kMaxSlices);
  const std::size_t slices = (n_kmers + slice_len - 1) / slice_len;
  std::vector<std::uint32_t> cursor(slices * kPartitions, 0);
  const auto for_each_in_slice = [&](std::size_t s, auto&& fn) {
    ForEachKmer(genome, k, s * slice_len,
                std::min(n_kmers, (s + 1) * slice_len), fn);
  };
  ParallelEach(pool, slices, [&](std::size_t s) {
    std::uint32_t* count = &cursor[s * kPartitions];
    for_each_in_slice(s, [&](std::size_t, std::uint64_t code) {
      ++count[code >> low_bits];
    });
  });
  std::vector<std::uint32_t> part_begin(kPartitions + 1, 0);
  std::uint32_t total = 0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    part_begin[p] = total;
    for (std::size_t s = 0; s < slices; ++s) {
      const std::uint32_t count = cursor[s * kPartitions + p];
      cursor[s * kPartitions + p] = total;
      total += count;
    }
  }
  part_begin[kPartitions] = total;
  positions_.resize(total);
  ParallelEach(pool, slices, [&](std::size_t s) {
    std::uint32_t* next = &cursor[s * kPartitions];
    for_each_in_slice(s, [&](std::size_t start, std::uint64_t code) {
      positions_[next[code >> low_bits]++] = static_cast<std::uint32_t>(start);
    });
  });

  // Step 2, sort: workers claim partitions; each counts its region's low
  // codes into the partition's offset slice, turns the counts into scatter
  // cursors, scatters stably, and shifts the slice so it holds bucket
  // starts.  A region's positions ascend through the genome, so the text
  // reads are prefetched a few positions ahead.
  constexpr std::uint32_t kPrefetchAhead = 16;
  const std::size_t workers = pool != nullptr ? pool->size() + 1 : 1;
  std::atomic<std::size_t> next_partition{0};
  ParallelEach(pool, workers, [&](std::size_t) {
    std::vector<std::uint64_t> keyed;  // (low code << 32) | position
    for (std::size_t p = next_partition.fetch_add(1); p < kPartitions;
         p = next_partition.fetch_add(1)) {
      const std::uint32_t begin = part_begin[p];
      const std::uint32_t end = part_begin[p + 1];
      std::uint32_t* table = &offsets_[p << low_bits];
      std::fill(table, table + sub_buckets, 0u);
      keyed.resize(end - begin);
      for (std::uint32_t i = begin; i < end; ++i) {
        if (end - i > kPrefetchAhead) {
          __builtin_prefetch(genome.data() + positions_[i + kPrefetchAhead] +
                             kPartitionBases);
        }
        const std::uint32_t pos = positions_[i];
        const char* tail = genome.data() + pos + kPartitionBases;
        std::uint64_t low = 0;
        for (int j = 0; j < k - kPartitionBases; ++j) {
          low = (low << 2) | BaseCode(tail[j]);
        }
        keyed[i - begin] = (low << 32) | pos;
        ++table[low];
      }
      std::uint32_t run = begin;
      for (std::size_t b = 0; b < sub_buckets; ++b) {
        const std::uint32_t count = table[b];
        table[b] = run;
        run += count;
      }
      for (const std::uint64_t e : keyed) {
        positions_[table[e >> 32]++] = static_cast<std::uint32_t>(e);
      }
      // Each cursor now ends its bucket, i.e. starts the next one.
      std::copy_backward(table, table + sub_buckets - 1, table + sub_buckets);
      table[0] = begin;
    }
  });
  offsets_.back() = total;
  offsets_view_ = offsets_;
  positions_view_ = positions_;
}

KmerIndex KmerIndex::View(int k, std::size_t genome_length,
                          std::span<const std::uint32_t> offsets,
                          std::span<const std::uint32_t> positions) {
  CheckK("KmerIndex::View", k);
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
  return EncodeKmer(kmer.data(), k_);
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
