#include "mapper/mapper.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "align/banded.hpp"
#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "obs/names.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gkgpu {

ReadMapper::ReadMapper(ReferenceSet reference, MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      pool_(std::make_unique<ThreadPool>(config.verify_threads, "gkgpu-map")),
      index_(SeedIndex::Build(ref_, SeedConfig{config.k, config.shard_max_bp},
                              pool_.get())),
      owned_encoding_(EncodeReference(ref_.text(), pool_.get())),
      encoding_(owned_encoding_.view()) {
  BindSeedCounters();
}

ReadMapper::ReadMapper(std::string genome, MapperConfig config)
    : ReadMapper(ReferenceSet("synthetic_chr1", std::move(genome)), config) {}

ReadMapper::ReadMapper(ReferenceSet reference, SeedIndex index,
                       const ReferenceEncodingView& encoding,
                       MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      pool_(std::make_unique<ThreadPool>(config.verify_threads, "gkgpu-map")),
      index_(std::move(index)),
      encoding_(encoding) {
  if (index_.k() != config_.k) {
    throw std::invalid_argument(
        "ReadMapper: preloaded index was built with k=" +
        std::to_string(index_.k()) + " but the mapper is configured for k=" +
        std::to_string(config_.k));
  }
  if (index_.genome_length() != static_cast<std::size_t>(ref_.length())) {
    throw std::invalid_argument(
        "ReadMapper: preloaded index covers " +
        std::to_string(index_.genome_length()) +
        " bases but the reference holds " + std::to_string(ref_.length()));
  }
  if (encoding_.length != ref_.length()) {
    throw std::invalid_argument(
        "ReadMapper: preloaded encoding covers " +
        std::to_string(encoding_.length) +
        " bases but the reference holds " + std::to_string(ref_.length()));
  }
  BindSeedCounters();
}

ReadMapper::~ReadMapper() = default;

void ReadMapper::BindSeedCounters() {
  // Labeled handles resolve under the registry mutex, so the kernel keeps
  // its own.
  if (index_.shard_count() > 1) {
    for (std::size_t s = 0; s < index_.shard_count(); ++s) {
      shard_candidates_.push_back(obs::ShardCandidates(std::to_string(s)));
    }
  }
}

void ReadMapper::SeedReads(std::span<const std::string_view> reads,
                           SeedChunk* chunk, SeedVote vote) const {
  SeedReads(reads, chunk, vote, &chunk->gather_);
}

void ReadMapper::SeedReads(std::span<const std::string_view> reads,
                           SeedChunk* chunk, SeedVote vote,
                           std::vector<std::int64_t>* gather) const {
  chunk->reads_ = reads.size();
  if (chunk->rc_.size() < reads.size()) chunk->rc_.resize(reads.size());
  chunk->seqs_.clear();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    // Reverse strand: a read sampled from the reverse strand equals the
    // reverse complement of a forward window, so seeding rc(read) against
    // the forward index finds exactly those loci.
    ReverseComplementInto(reads[i], &chunk->rc_[i]);
    chunk->seqs_.push_back(reads[i]);
    chunk->seqs_.push_back(chunk->rc_[i]);
  }
  SeedSequences(chunk, vote, gather);
}

namespace {

// A gathered hit packs its diagonal (the window start it implies) above
// kTagBits bits of its seed's index, so one sort orders hits by diagonal
// and puts a diagonal's pigeonhole seeds first.  The vote counts distinct
// seeds in one 64-bit mask, so it reads at most the first kVoteSeeds
// k-mers; the lemma holds for any subset of non-overlapping k-mers.
constexpr int kTagBits = 6;
constexpr int kVoteSeeds = 1 << kTagBits;

std::int64_t PackHit(std::int64_t diagonal, std::int64_t tag) {
  return diagonal * kVoteSeeds + tag;
}
std::int64_t Diagonal(std::int64_t hit) { return hit >> kTagBits; }
int SeedTag(std::int64_t hit) {
  return static_cast<int>(hit & (kVoteSeeds - 1));
}

// The lone-hit pass counts a voting sequence's hits per diagonal bucket in
// kCountSlots uint8 slots, bucket mod kCountSlots: aliased buckets only add
// to a count, so they can keep a hit but never drop one.  A sequence with
// more than kMaxCountedHits hits could overflow a slot and is sorted whole.
constexpr std::size_t kCountSlots = 1024;
constexpr std::size_t kMaxCountedHits = 255;

std::size_t Slot(std::int64_t hit, int shift) {
  return static_cast<std::size_t>(hit >> shift) & (kCountSlots - 1);
}

// Sorts a sequence's hits: insertion sort for the handful that usually
// survives the lone-hit pass, std::sort beyond.
void SortHits(std::span<std::int64_t> hits) {
  if (hits.size() > 16) {
    std::sort(hits.begin(), hits.end());
    return;
  }
  for (std::size_t i = 1; i < hits.size(); ++i) {
    const std::int64_t h = hits[i];
    std::size_t j = i;
    for (; j > 0 && hits[j - 1] > h; --j) hits[j] = hits[j - 1];
    hits[j] = h;
  }
}

}  // namespace

// Appends `seq`'s seeds and returns the supporting seeds the vote demands
// of each candidate, 0 when the vote is off or a no-op.
int ReadMapper::SelectSeeds(std::string_view seq, SeedVote vote,
                            std::vector<SeedChunk::Seed>* seeds) const {
  const int k = index_.k();
  // Pigeonhole seeding: e+1 non-overlapping k-mers guarantee that a read
  // within the threshold shares at least one exact seed with its locus.
  // The vote looks up the read's other non-overlapping k-mers too.
  const int e = config_.error_threshold;
  const int n = static_cast<int>(seq.size()) / k;
  const int pigeonhole = std::min(e + 1, n);
  const int voters = std::min(n, kVoteSeeds);
  const int n_seeds =
      vote == SeedVote::kOn && voters - e > 1 ? voters : pigeonhole;
  const std::size_t first = seeds->size();
  for (int s = 0; s < n_seeds; ++s) {
    const std::size_t offset = static_cast<std::size_t>(s * k);
    const std::int64_t code = EncodeKmer(seq.data() + offset, k);
    if (code < 0) continue;  // an N inside the seed
    seeds->push_back(SeedChunk::Seed{static_cast<std::uint64_t>(code),
                                     static_cast<std::uint32_t>(offset)});
  }
  if (n_seeds == pigeonhole) return 0;
  const int needed = static_cast<int>(seeds->size() - first) - e;
  if (needed > 1) return needed;
  // Too many seeds hold an N for the vote to cut anything: look up the
  // pigeonhole seeds alone.
  const std::uint32_t end = static_cast<std::uint32_t>(pigeonhole * k);
  seeds->erase(
      std::find_if(seeds->begin() + static_cast<std::ptrdiff_t>(first),
                   seeds->end(),
                   [&](const SeedChunk::Seed& h) { return h.pos >= end; }),
      seeds->end());
  return 0;
}

// The lookup kernel over chunk->seqs_.  A k=12 offset table is 64 MiB on
// 4 KiB pages, so every lookup misses both TLB and cache; the three passes
// keep all of a chunk's misses in flight together instead of waiting each
// one out in turn.  chunk->seqs_ alternates each read and its reverse
// complement, so sequence j's candidates carry strand j % 2.
void ReadMapper::SeedSequences(SeedChunk* chunk, SeedVote vote,
                               std::vector<std::int64_t>* gather) const {
  const std::vector<std::string_view>& seqs = chunk->seqs_;
  std::vector<SeedChunk::Seed>& seeds = chunk->seeds_;
  const std::size_t shards = index_.shard_count();

  // Pass 1: every sequence's seeds, each offset-table entry prefetched as
  // soon as its code is known.
  seeds.clear();
  chunk->seed_bounds_.assign(1, 0);
  chunk->votes_needed_.clear();
  for (const std::string_view seq : seqs) {
    const std::size_t first = seeds.size();
    chunk->votes_needed_.push_back(SelectSeeds(seq, vote, &seeds));
    for (std::size_t s = first; s < seeds.size(); ++s) {
      for (std::size_t sh = 0; sh < shards; ++sh) {
        __builtin_prefetch(index_.shard(sh).offsets().data() + seeds[s].code);
      }
    }
    chunk->seed_bounds_.push_back(static_cast<std::uint32_t>(seeds.size()));
  }

  // Pass 2: each bucket's bounds, its first position line prefetched.  A
  // view of an index file is checked only for its shape when it opens, so
  // each bucket is checked here, where it is read.
  chunk->buckets_.resize(seeds.size() * shards);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const KmerIndex& idx = index_.shard(sh);
      const std::uint32_t b = idx.offsets()[seeds[s].code];
      const std::uint32_t e = idx.offsets()[seeds[s].code + 1];
      if (b > e || e > idx.positions().size()) [[unlikely]] {
        throw std::runtime_error(
            "k-mer index shard " + std::to_string(sh) + ": the bucket of " +
            "k-mer code " + std::to_string(seeds[s].code) + " spans [" +
            std::to_string(b) + ", " + std::to_string(e) + "), outside its " +
            std::to_string(idx.positions().size()) +
            " positions (corrupt index offsets)");
      }
      chunk->buckets_[s * shards + sh] = {b, e};
      if (b != e) __builtin_prefetch(idx.positions().data() + b);
    }
  }

  // Pass 3: raw hits -> diagonals per sequence.  A voting sequence's lone
  // hits leave unsorted; the rest are sorted, and each diagonal a
  // pigeonhole seed hits becomes a candidate window if it lies in one
  // chromosome and passes the vote.
  const int k = index_.k();
  const std::int64_t e = config_.error_threshold;
  const std::int64_t genome_len = ref_.length();
  const std::vector<std::int64_t>& chrom_ends = ref_.chromosome_ends();
  // A hit's bucket is its diagonal over 2^s > e, so hits within +-e
  // diagonals of each other fall in the same or adjacent buckets; the
  // shift drops the seed tag too.
  const int shift = kTagBits + std::bit_width(static_cast<std::uint64_t>(e));
  std::array<std::uint8_t, kCountSlots> counts{};
  std::uint64_t voted_out = 0;
  chunk->candidates_.clear();
  chunk->bounds_.assign(1, 0);
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    const int L = static_cast<int>(seqs[j].size());
    const int needed = chunk->votes_needed_[j];
    const int pigeonhole = std::min(config_.error_threshold + 1, L / k);
    const std::uint32_t seed_begin = chunk->seed_bounds_[j];
    const std::uint32_t seed_end = chunk->seed_bounds_[j + 1];
    std::size_t n_hits = 0;
    for (std::size_t b = seed_begin * shards; b < seed_end * shards; ++b) {
      n_hits += chunk->buckets_[b].second - chunk->buckets_[b].first;
    }
    if (gather->size() < n_hits) gather->resize(n_hits);
    std::span<std::int64_t> hits(gather->data(), n_hits);
    std::int64_t* out = hits.data();
    for (std::uint32_t s = seed_begin; s < seed_end; ++s) {
      // Without a vote every seed is a pigeonhole seed: tag them all 0.
      const std::int64_t tag = needed > 0 ? seeds[s].pos / k : 0;
      for (std::size_t sh = 0; sh < shards; ++sh) {
        // Shard-local hit -> global diagonal.  Because shards tile
        // chromosome groups, every window that survives the junction check
        // below lies inside one shard; the merged set across shards is
        // exactly what one monolithic index would seed.
        const std::int64_t base =
            index_.plan().shard(sh).text_offset - seeds[s].pos;
        const auto [b, end] = chunk->buckets_[s * shards + sh];
        const std::uint32_t* positions = index_.shard(sh).positions().data();
        for (std::uint32_t p = b; p < end; ++p) {
          *out++ = PackHit(base + positions[p], tag);
        }
      }
    }
    if (needed > 0 && hits.size() <= kMaxCountedHits) {
      // The lone-hit pass.  A hit alone in its bucket and both neighbours
      // has no other hit within +-e diagonals: its window's support is at
      // most itself, below any vote's threshold (>= 2), it supports no
      // other window, and no other hit shares its diagonal.  So it leaves
      // unsorted, and as a pigeonhole hit whose window is a valid one it is
      // exactly one voted-out window.
      for (const std::int64_t h : hits) ++counts[Slot(h, shift)];
      std::size_t kept = 0;
      for (const std::int64_t h : hits) {
        const std::size_t slot = Slot(h, shift);
        if (counts[(slot - 1) & (kCountSlots - 1)] + counts[slot] +
                counts[(slot + 1) & (kCountSlots - 1)] >
            1) {
          hits[kept++] = h;
          continue;
        }
        // No other hit reads a lone hit's slot (it would be a neighbour),
        // so it can be cleared at once.
        counts[slot] = 0;
        if (SeedTag(h) < pigeonhole &&
            ref_.WindowWithinChromosome(Diagonal(h), L)) {
          ++voted_out;
        }
      }
      hits = hits.first(kept);
      for (const std::int64_t h : hits) counts[Slot(h, shift)] = 0;
      SortHits(hits);
    } else {
      std::sort(hits.begin(), hits.end());
    }
    const std::uint8_t strand = static_cast<std::uint8_t>(j % 2);
    // The first chromosome ending after the current window's start: the
    // windows ascend, so it only moves forward.
    std::size_t chrom = 0;
    // [lo, hi): the hits within +-e diagonals of the current window.
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < hits.size();) {
      const std::int64_t start = Diagonal(hits[i]);
      const bool pigeonhole_hit =
          needed == 0 || SeedTag(hits[i]) < pigeonhole;
      while (i < hits.size() && Diagonal(hits[i]) == start) ++i;
      if (!pigeonhole_hit) continue;
      if (start < 0 || start + L > genome_len) continue;
      // A window reaching across a chromosome junction would align the
      // read against a chimeric segment; drop it at seeding time.
      if (chrom_ends[chrom] <= start) {
        chrom = static_cast<std::size_t>(
            std::upper_bound(chrom_ends.begin() +
                                 static_cast<std::ptrdiff_t>(chrom + 1),
                             chrom_ends.end(), start) -
            chrom_ends.begin());
      }
      if (start + L > chrom_ends[chrom]) continue;
      if (needed > 0) {
        // A seed supports the window if it hits inside it, within +-e
        // diagonals: where the lemma puts every intact k-mer.  Hits reaching
        // out of the window never count, which also keeps the vote
        // independent of the shard layout (a k-mer spanning a chromosome
        // junction is indexed only where both chromosomes share a shard).
        while (Diagonal(hits[lo]) < start - e) ++lo;
        hi = std::max(hi, i);
        while (hi < hits.size() && Diagonal(hits[hi]) <= start + e) ++hi;
        // Each supporting seed is at least one of the hits in range.
        if (hi - lo < static_cast<std::size_t>(needed)) {
          ++voted_out;
          continue;
        }
        std::uint64_t support = 0;
        for (std::size_t q = lo; q < hi; ++q) {
          const std::int64_t at = Diagonal(hits[q]) + SeedTag(hits[q]) * k;
          if (at >= start && at + k <= start + L) {
            support |= std::uint64_t{1} << SeedTag(hits[q]);
          }
        }
        if (std::popcount(support) < needed) {
          ++voted_out;
          continue;
        }
      }
      chunk->candidates_.push_back({start, strand});
    }
    chunk->bounds_.push_back(
        static_cast<std::uint32_t>(chunk->candidates_.size()));
  }
  CountSeeded(chunk, voted_out);
}

void ReadMapper::CountSeeded(SeedChunk* chunk, std::uint64_t voted_out) const {
  const std::uint64_t n = chunk->candidates_.size();
  obs::CandidatesSeeded().Inc(n);
  obs::CandidatesVotedOut().Inc(voted_out);
  if (shard_candidates_.empty() || !obs::Enabled()) return;
  chunk->shard_tally_.assign(shard_candidates_.size(), 0);
  for (const OrientedCandidate& oc : chunk->candidates_) {
    ++chunk->shard_tally_[index_.plan().ShardOf(oc.pos)];
  }
  for (std::size_t s = 0; s < shard_candidates_.size(); ++s) {
    shard_candidates_[s].Inc(chunk->shard_tally_[s]);
  }
}

void ReadMapper::CollectCandidatesOriented(
    std::string_view read, std::string* rc,
    std::vector<std::int64_t>* scratch,
    std::vector<OrientedCandidate>* candidates) const {
  thread_local SeedChunk chunk;
  SeedReads(std::span<const std::string_view>(&read, 1), &chunk,
            SeedVote::kOn, scratch);
  rc->swap(chunk.rc(0));
  candidates->assign(chunk.candidates(0).begin(), chunk.candidates(0).end());
}

MappingStats ReadMapper::MapReads(const std::vector<std::string>& reads,
                                  GateKeeperGpuEngine* filter,
                                  std::vector<MappingRecord>* out) {
  MappingStats stats;
  stats.reads = reads.size();
  WallTimer total;
  if (filter != nullptr && !filter->HasReference()) {
    filter->LoadReference(encoding_);
  }

  std::vector<bool> read_mapped(reads.size(), false);
  // Reads per filtering round: the engine's, and without one the default
  // the engine would use (Table 1).
  const std::size_t batch_reads = std::max<std::size_t>(
      1, filter != nullptr ? filter->config().max_reads_per_batch
                           : EngineConfig{}.max_reads_per_batch);

  // Batch read tables are *views* into the caller's read set — the
  // filtration layer consumes string_views end to end, so no per-batch
  // read strings are materialized (only the reverse complements, which
  // genuinely are new sequences).
  std::vector<std::string_view> batch;
  std::vector<std::string> batch_rc;      // reverse complements
  std::vector<CandidatePair> candidates;  // (read-in-batch, strand, position)
  SeedChunk chunk;

  for (std::size_t base = 0; base < reads.size(); base += batch_reads) {
    const std::size_t count = std::min(batch_reads, reads.size() - base);

    // --- Seeding: fill the batch buffers (Sec. 3.5: "we fill the buffers
    // with multiple reads and their candidate location indices"), both
    // orientations per read. ---
    WallTimer seed_timer;
    batch.assign(reads.begin() + static_cast<std::ptrdiff_t>(base),
                 reads.begin() + static_cast<std::ptrdiff_t>(base + count));
    batch_rc.resize(count);
    candidates.clear();
    for (std::size_t c0 = 0; c0 < count; c0 += kSeedChunkReads) {
      const std::size_t n = std::min(kSeedChunkReads, count - c0);
      // Unvoted: Table 3's potential mappings and the GateKeeper
      // reduction keep the paper's meaning.
      SeedReads(std::span(batch).subspan(c0, n), &chunk, SeedVote::kOff);
      for (std::size_t j = 0; j < n; ++j) {
        batch_rc[c0 + j].swap(chunk.rc(j));
        for (const OrientedCandidate oc : chunk.candidates(j)) {
          candidates.push_back(
              {static_cast<std::uint32_t>(c0 + j), oc.strand, 0, oc.pos});
        }
      }
    }
    stats.seeding_seconds += seed_timer.Seconds();
    stats.candidates_total += candidates.size();

    // --- Pre-alignment filtering (optional). ---
    std::vector<PairResult> decisions;
    if (filter != nullptr) {
      const FilterRunStats fs =
          filter->FilterCandidates(batch, candidates, &decisions);
      stats.filter_seconds += fs.filter_seconds;
      stats.filter_kernel_seconds += fs.kernel_seconds;
      stats.filter_encode_seconds += fs.host_encode_seconds;
      stats.filter_copy_seconds += fs.host_copy_seconds;
      stats.rejected_pairs += fs.rejected;
    }

    // --- Verification: banded edit distance on surviving pairs, each on
    // the strand it was seeded on. ---
    WallTimer verify_timer;
    std::vector<MappingRecord> found(candidates.size(),
                                     MappingRecord{0, 0, -1, 0});
    std::atomic<std::uint64_t> verified{0};
    pool_->ParallelFor(0, candidates.size(), 256, [&](std::size_t i0,
                                                      std::size_t i1) {
      std::uint64_t local_verified = 0;
      for (std::size_t i = i0; i < i1; ++i) {
        if (filter != nullptr && decisions[i].accept == 0) continue;
        ++local_verified;
        const CandidatePair c = candidates[i];
        const std::string_view read =
            c.strand != 0 ? std::string_view(batch_rc[c.read_index])
                          : batch[c.read_index];
        const std::string_view segment(
            ref_.text().data() + c.ref_pos, read.size());
        const int dist =
            BandedEditDistance(read, segment, config_.error_threshold);
        if (dist >= 0) {
          found[i] = MappingRecord{
              static_cast<std::uint32_t>(base + c.read_index), c.ref_pos,
              dist, c.strand};
        }
      }
      verified.fetch_add(local_verified, std::memory_order_relaxed);
    });
    stats.verification_seconds += verify_timer.Seconds();
    stats.verification_pairs += verified.load();

    for (const MappingRecord& m : found) {
      if (m.edit_distance < 0) continue;
      ++stats.mappings;
      read_mapped[m.read_index] = true;
      if (out != nullptr) out->push_back(m);
    }
  }

  stats.mapped_reads = static_cast<std::uint64_t>(
      std::count(read_mapped.begin(), read_mapped.end(), true));
  stats.total_seconds = total.Seconds();
  obs::ReadsMapped().Inc(stats.mapped_reads);
  obs::ReadsUnmapped().Inc(stats.reads - stats.mapped_reads);
  return stats;
}

}  // namespace gkgpu
