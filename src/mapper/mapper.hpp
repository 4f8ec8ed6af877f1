// mrFAST-like seed-and-extend read mapper with a pluggable pre-alignment
// filter, reproducing the integration of GateKeeper-GPU Sec. 3.5:
//
//   seed (k-mer index lookups, pigeonhole seeds; the streaming paths
//         add the seed vote, SeedVote)
//     -> batch candidate locations for many reads
//     -> [optional] GateKeeper-GPU pre-alignment filtering
//     -> verification (banded edit distance <= e)
//     -> mapping records + the statistics Table 3 reports.
//
// Without a filter every candidate enters verification ("No Filter" rows);
// with a filter only accepted + bypassed pairs do.
#ifndef GKGPU_MAPPER_MAPPER_HPP
#define GKGPU_MAPPER_MAPPER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "io/reference.hpp"
#include "mapper/minimizer.hpp"
#include "mapper/seed_index.hpp"
#include "obs/metrics.hpp"

namespace gkgpu {

struct MapperConfig {
  int k = 12;
  int read_length = 100;
  int error_threshold = 5;
  /// Reads batched per filtering round (Table 1; 100,000 is the paper's
  /// sweet spot).
  std::size_t max_reads_per_batch = 100000;
  /// Workers of the mapper's pool (0 = hardware concurrency): MapReads
  /// verifies on it, and the streaming drivers run their chunk workers on
  /// it (pipeline/ordered_chunks.hpp).
  unsigned verify_threads = 0;
  /// Seeding strategy: dense pigeonhole seeds (the mrFAST default) or
  /// (w,k) minimizer sampling (see mapper/minimizer.hpp).
  SeedMode seed_mode = SeedMode::kDense;
  int minimizer_w = 5;  // winnowing window, minimizer mode only
  /// Shard byte budget for the index (see SeedConfig::shard_max_bp);
  /// 0 = one shard per 4 Gbp.
  std::int64_t shard_max_bp = 0;
};

/// One seeding hit: a candidate mapping location plus the strand it was
/// seeded on (0 = the read itself matches the forward reference window,
/// 1 = its reverse complement does).  The strand bit is carried into
/// CandidatePair and travels with it through filtration.
struct OrientedCandidate {
  std::int64_t pos = 0;
  std::uint8_t strand = 0;
};

struct MappingRecord {
  std::uint32_t read_index = 0;
  std::int64_t pos = 0;
  int edit_distance = 0;
  /// 0 = the read maps forward; 1 = its reverse complement does (SAM FLAG
  /// 0x10, reverse-complemented SEQ in output).
  std::uint8_t strand = 0;
};

/// The metrics of Table 3 / Sup. Tables S.24-S.26 plus stage timings.
struct MappingStats {
  std::uint64_t reads = 0;
  std::uint64_t mappings = 0;
  std::uint64_t mapped_reads = 0;
  std::uint64_t candidates_total = 0;    // potential mappings found by seeding
  std::uint64_t verification_pairs = 0;  // candidates entering verification
  std::uint64_t rejected_pairs = 0;      // discarded by the filter
  std::uint64_t bypassed_pairs = 0;      // undefined pairs passed through

  double seeding_seconds = 0.0;
  double preprocess_seconds = 0.0;     // filter-side host preprocessing
  double filter_seconds = 0.0;         // total filtering ("ft")
  double filter_kernel_seconds = 0.0;  // device time only ("kt")
  double filter_encode_seconds = 0.0;  // host-side encoding within filtering
  double filter_copy_seconds = 0.0;    // host-side buffer copies
  double verification_seconds = 0.0;   // the DP stage the filter offloads
  double total_seconds = 0.0;

  double ReductionPercent() const {
    return candidates_total == 0
               ? 0.0
               : 100.0 * static_cast<double>(rejected_pairs) /
                     static_cast<double>(candidates_total);
  }
};

/// Which candidate set the seeding kernel (ReadMapper::SeedReads) emits.
/// The seed vote is FastHASH's adjacency filtering (Xin et al. 2013), a
/// lossless cut by the q-gram lemma: a window within e edits of a read
/// shares at least n - e of the read's n = floor(L/k) non-overlapping
/// k-mers exactly, each inside the window at a diagonal within +-e of the
/// window's.  Dense seeding only; minimizers overlap, so the bound differs.
enum class SeedVote : std::uint8_t {
  /// Every window an exact pigeonhole seed hits: Table 3's "potential
  /// mappings".  MapReads and paired mapping seed this set.
  kOff,
  /// The pigeonhole set minus the windows with fewer than n_valid - e
  /// supporting seeds (n_valid excludes seeds containing N); a no-op where
  /// that threshold is <= 1.  StreamFastqToSam, the daemon and the
  /// one-read entry points seed this set.
  kOn,
};

/// Reads per seeding chunk on every mapping path.  The chunked lookup
/// kernel (ReadMapper::SeedReads) issues all of a chunk's index lookups
/// before it consumes any, so their cache and TLB misses overlap instead
/// of queueing; chunks of 8 to 64 reads measure within ~10% of each other.
inline constexpr std::size_t kSeedChunkReads = 32;

/// One chunk's seeding output (ReadMapper::SeedReads) plus the kernel's
/// scratch.  Reuse one across chunks: every buffer keeps its capacity.
class SeedChunk {
 public:
  std::size_t size() const { return reads_; }
  /// Read i's reverse complement; callers may swap it out.
  std::string& rc(std::size_t i) { return rc_[i]; }
  /// Read i's oriented candidates, laid out as CollectCandidatesOriented
  /// emits them: forward strand first, then reverse, each sorted and
  /// deduplicated.
  std::span<const OrientedCandidate> candidates(std::size_t i) const {
    return std::span<const OrientedCandidate>(candidates_)
        .subspan(bounds_[2 * i], bounds_[2 * i + 2] - bounds_[2 * i]);
  }

 private:
  friend class ReadMapper;
  std::size_t reads_ = 0;
  std::vector<std::string> rc_;
  std::vector<std::string_view> seqs_;  // the sequences the kernel seeds
  std::vector<OrientedCandidate> candidates_;
  std::vector<std::uint32_t> bounds_;  // sequence j: [bounds_[j], bounds_[j+1])
  /// Every sequence's seeds as (k-mer code, offset in the sequence) pairs:
  /// pigeonhole k-mers or minimizers.
  std::vector<MinimizerHit> seeds_;
  std::vector<std::uint32_t> seed_bounds_;  // per sequence, like bounds_
  /// Per sequence: supporting seeds a candidate needs (0 = no vote).
  std::vector<int> votes_needed_;
  /// CSR bucket [begin, end) of each seed in each shard, seed-major.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> buckets_;
  /// One sequence's raw hits, each its diagonal tagged with its seed.
  std::vector<std::int64_t> gather_;
  std::vector<std::uint64_t> shard_tally_;
};

class ReadMapper {
 public:
  /// Multi-chromosome mapper: one k-mer index and one encoded reference
  /// over the concatenated text; mappings carry global positions that the
  /// reference set maps back to (chromosome, local position).
  ReadMapper(ReferenceSet reference, MapperConfig config);
  /// Single-sequence convenience (the chromosome is named
  /// "synthetic_chr1", matching the synthetic-genome tooling).
  ReadMapper(std::string genome, MapperConfig config);
  /// Preloaded-index mapper: adopts an already-built (typically mmap'd,
  /// view-mode) sharded index instead of scanning the genome.  The index's
  /// k must equal `config.k` and its genome_length the reference length;
  /// throws std::invalid_argument otherwise.  The index's seed mode,
  /// winnowing window and shard layout override the config's — they are
  /// baked into the persisted CSR payload.  When either the reference or
  /// the index is a view, the backing storage (the MappedIndexFile) must
  /// outlive the mapper.
  ReadMapper(ReferenceSet reference, SeedIndex index, MapperConfig config);
  ~ReadMapper();

  const ReferenceSet& reference() const { return ref_; }
  std::string_view genome() const { return ref_.text(); }
  const MapperConfig& config() const { return config_; }
  const SeedIndex& index() const { return index_; }
  /// The mapper's worker pool (MapperConfig::verify_threads).  ThreadPool
  /// is thread-safe, so a const mapper lends it to the drivers that borrow
  /// it: StreamFastqToSam, paired mapping and the daemon.
  ThreadPool* pool() const { return pool_.get(); }

  /// Maps `reads`; when `filter` is non-null it is used as the
  /// pre-alignment stage (the engine's reference is loaded on first use).
  /// `out` (optional) receives every verified mapping.
  MappingStats MapReads(const std::vector<std::string>& reads,
                        GateKeeperGpuEngine* filter,
                        std::vector<MappingRecord>* out = nullptr);

  /// Chunked seeding, the lookup path behind every driver: seeds each of
  /// `reads` and its reverse complement against the index, for any number
  /// of reads (the mapping paths pass kSeedChunkReads at a time), and
  /// emits the candidate set `vote` names.  Candidates are global, never
  /// span a chromosome junction, and equal what seeding each read alone
  /// yields.
  /// Publishes the seeding counters (gkgpu_candidates_seeded_total, its
  /// {seeder} split and, on sharded indexes, the {shard} split, all
  /// counting what the kernel emits; gkgpu_candidates_voted_out_total for
  /// the vote's cut) once per call.
  void SeedReads(std::span<const std::string_view> reads, SeedChunk* chunk,
                 SeedVote vote) const;

  /// Seeding only, forward strand: the voted candidate locations for one
  /// read (deduplicated, global coordinates, never spanning a chromosome
  /// junction).
  void CollectCandidates(std::string_view read,
                         std::vector<std::int64_t>* candidates) const;

  /// One read through SeedReads with the vote on: both strands, forward
  /// candidates first (sorted, deduplicated per strand).  `rc` receives
  /// the reverse complement (the caller reuses it for verification and SAM
  /// output) and `scratch` is the kernel's hit buffer, both amortized
  /// across a read loop.
  void CollectCandidatesOriented(std::string_view read, std::string* rc,
                                 std::vector<std::int64_t>* scratch,
                                 std::vector<OrientedCandidate>* candidates)
      const;

 private:
  void BindSeedCounters();
  void SeedReads(std::span<const std::string_view> reads, SeedChunk* chunk,
                 SeedVote vote, std::vector<std::int64_t>* gather) const;
  int SelectSeeds(std::string_view seq, SeedVote vote,
                  std::vector<MinimizerHit>* seeds) const;
  void SeedSequences(std::size_t strands, SeedChunk* chunk, SeedVote vote,
                     std::vector<std::int64_t>* gather) const;
  void CountSeeded(SeedChunk* chunk, std::uint64_t voted_out) const;

  ReferenceSet ref_;
  MapperConfig config_;
  SeedIndex index_;
  std::unique_ptr<ThreadPool> pool_;
  obs::Counter seeder_candidates_;
  std::vector<obs::Counter> shard_candidates_;  // empty on one shard
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_MAPPER_HPP
