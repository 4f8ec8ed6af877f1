#include "mapper/mapper.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "align/banded.hpp"
#include "mapper/minimizer.hpp"
#include "obs/names.hpp"
#include "encode/revcomp.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gkgpu {

ReadMapper::ReadMapper(ReferenceSet reference, MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      index_(SeedIndex::Build(ref_,
                              SeedConfig{config.k, config.seed_mode,
                                         config.minimizer_w,
                                         config.shard_max_bp})),
      pool_(std::make_unique<ThreadPool>(config.verify_threads, "gkgpu-map")) {
  BindSeedCounters();
}

ReadMapper::ReadMapper(std::string genome, MapperConfig config)
    : ReadMapper(ReferenceSet("synthetic_chr1", std::move(genome)), config) {}

ReadMapper::ReadMapper(ReferenceSet reference, SeedIndex index,
                       MapperConfig config)
    : ref_(std::move(reference)),
      config_(config),
      index_(std::move(index)),
      pool_(std::make_unique<ThreadPool>(config.verify_threads, "gkgpu-map")) {
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
  // Seeding must run the strategy the persisted CSR encodes.
  config_.seed_mode = index_.mode();
  if (index_.mode() == SeedMode::kMinimizer) {
    config_.minimizer_w = index_.minimizer_w();
  }
  BindSeedCounters();
}

ReadMapper::~ReadMapper() = default;

void ReadMapper::BindSeedCounters() {
  // Labeled handles resolve under the registry mutex, so the kernel keeps
  // its own.
  seeder_candidates_ = obs::SeederCandidates(SeedModeName(config_.seed_mode));
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
  SeedSequences(2, chunk, vote, gather);
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

}  // namespace

// Appends `seq`'s seeds and returns the supporting seeds the vote demands
// of each candidate, 0 when the vote is off or a no-op.
int ReadMapper::SelectSeeds(std::string_view seq, SeedVote vote,
                            std::vector<MinimizerHit>* seeds) const {
  const int k = index_.k();
  if (config_.seed_mode == SeedMode::kMinimizer) {
    // Anchoring a hit at the minimizer's offset makes the read's minimizer
    // coincide with the reference's: both sides select the same k-mer of
    // any shared error-free window of w+k-1 bases (selection is a pure
    // function of window content).
    CollectMinimizers(seq, k, index_.minimizer_w(), seeds);
    return 0;
  }
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
    const std::int64_t code =
        index_.shard(0).Encode(seq.substr(offset, static_cast<std::size_t>(k)));
    if (code < 0) continue;  // an N inside the seed
    seeds->push_back(MinimizerHit{static_cast<std::uint64_t>(code),
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
                   [&](const MinimizerHit& h) { return h.pos >= end; }),
      seeds->end());
  return 0;
}

// The lookup kernel over chunk->seqs_.  A k=12 offset table is 64 MiB on
// 4 KiB pages, so every lookup misses both TLB and cache; the three passes
// keep all of a chunk's misses in flight together instead of waiting each
// one out in turn.  Sequence j's candidates carry strand j % strands.
void ReadMapper::SeedSequences(std::size_t strands, SeedChunk* chunk,
                               SeedVote vote,
                               std::vector<std::int64_t>* gather) const {
  const std::vector<std::string_view>& seqs = chunk->seqs_;
  std::vector<MinimizerHit>& seeds = chunk->seeds_;
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

  // Pass 2: each bucket's bounds, its first position line prefetched.
  chunk->buckets_.resize(seeds.size() * shards);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t sh = 0; sh < shards; ++sh) {
      const KmerIndex& idx = index_.shard(sh);
      const std::uint32_t b = idx.offsets()[seeds[s].code];
      const std::uint32_t e = idx.offsets()[seeds[s].code + 1];
      chunk->buckets_[s * shards + sh] = {b, e};
      if (b != e) __builtin_prefetch(idx.positions().data() + b);
    }
  }

  // Pass 3: raw hits -> diagonals, sorted per sequence; each diagonal a
  // pigeonhole seed hits becomes a candidate window if it lies in one
  // chromosome and passes the vote.
  const int k = index_.k();
  const std::int64_t e = config_.error_threshold;
  const std::int64_t genome_len = ref_.length();
  const bool multi_chrom = ref_.chromosome_count() > 1;
  std::uint64_t voted_out = 0;
  chunk->candidates_.clear();
  chunk->bounds_.assign(1, 0);
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    const int L = static_cast<int>(seqs[j].size());
    const int needed = chunk->votes_needed_[j];
    gather->clear();
    for (std::uint32_t s = chunk->seed_bounds_[j];
         s < chunk->seed_bounds_[j + 1]; ++s) {
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
        const std::span<const std::uint32_t> positions =
            index_.shard(sh).positions();
        for (std::uint32_t p = b; p < end; ++p) {
          gather->push_back(PackHit(base + positions[p], tag));
        }
      }
    }
    std::sort(gather->begin(), gather->end());
    const std::vector<std::int64_t>& hits = *gather;
    const int pigeonhole = std::min(config_.error_threshold + 1, L / k);
    const std::uint8_t strand = static_cast<std::uint8_t>(j % strands);
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
      if (multi_chrom && !ref_.WindowWithinChromosome(start, L)) continue;
      if (needed > 0) {
        // A seed supports the window if it hits inside it, within +-e
        // diagonals: where the lemma puts every intact k-mer.  Hits reaching
        // out of the window never count, which also keeps the vote
        // independent of the shard layout (a k-mer spanning a chromosome
        // junction is indexed only where both chromosomes share a shard).
        while (Diagonal(hits[lo]) < start - e) ++lo;
        hi = std::max(hi, i);
        while (hi < hits.size() && Diagonal(hits[hi]) <= start + e) ++hi;
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
  seeder_candidates_.Inc(n);
  if (shard_candidates_.empty() || !obs::Enabled()) return;
  chunk->shard_tally_.assign(shard_candidates_.size(), 0);
  for (const OrientedCandidate& oc : chunk->candidates_) {
    ++chunk->shard_tally_[index_.plan().ShardOf(oc.pos)];
  }
  for (std::size_t s = 0; s < shard_candidates_.size(); ++s) {
    shard_candidates_[s].Inc(chunk->shard_tally_[s]);
  }
}

void ReadMapper::CollectCandidates(std::string_view read,
                                   std::vector<std::int64_t>* candidates)
    const {
  thread_local SeedChunk chunk;
  chunk.seqs_.assign(1, read);
  SeedSequences(1, &chunk, SeedVote::kOn, &chunk.gather_);
  candidates->clear();
  for (const OrientedCandidate& oc : chunk.candidates_) {
    candidates->push_back(oc.pos);
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
    WallTimer prep;
    filter->LoadReference(ref_.text());
    stats.preprocess_seconds += prep.Seconds();
  }

  std::vector<bool> read_mapped(reads.size(), false);
  const std::size_t batch_reads = std::max<std::size_t>(
      1, filter != nullptr ? filter->config().max_reads_per_batch
                           : config_.max_reads_per_batch);

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
      stats.bypassed_pairs += fs.bypassed;
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
