// mrFAST-like seed-and-extend read mapper with a pluggable pre-alignment
// filter, reproducing the integration of GateKeeper-GPU Sec. 3.5:
//
//   seed (lookups of e+1 non-overlapping read k-mers, the pigeonhole
//         seeds, in the dense k-mer index; the streaming paths add the
//         seed vote, SeedVote)
//     -> batch candidate locations for many reads
//     -> [optional] GateKeeper-GPU pre-alignment filtering
//     -> verification (banded edit distance <= e)
//     -> mapping records + the statistics Table 3 reports.
//
// Without a filter every candidate enters verification ("No Filter" rows);
// with a filter only accepted + bypassed pairs do.  MapReads runs that
// loop over an in-memory read set on a simulated device, for the paper's
// Table-3 reproductions; `gkgpu map` streams through the chunk workers
// instead (pipeline/read_to_sam.hpp, pipeline/ordered_chunks.hpp).
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
#include "encode/encoded.hpp"
#include "io/reference.hpp"
#include "mapper/seed_index.hpp"
#include "obs/metrics.hpp"

namespace gkgpu {

struct MapperConfig {
  int k = 12;
  int read_length = 100;
  int error_threshold = 5;
  /// Workers of the mapper's pool (0 = hardware concurrency): the FASTA
  /// constructor builds the index and the encoding on it, MapReads
  /// verifies on it, and the streaming drivers run their chunk workers on
  /// it (pipeline/ordered_chunks.hpp).
  unsigned verify_threads = 0;
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

  double seeding_seconds = 0.0;
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
/// window's.
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
  /// One seed: a read k-mer's 2-bit code and its offset in the sequence.
  struct Seed {
    std::uint64_t code = 0;
    std::uint32_t pos = 0;
  };
  std::size_t reads_ = 0;
  std::vector<std::string> rc_;
  std::vector<std::string_view> seqs_;  // the sequences the kernel seeds
  std::vector<OrientedCandidate> candidates_;
  std::vector<std::uint32_t> bounds_;  // sequence j: [bounds_[j], bounds_[j+1])
  /// Every sequence's seeds: its pigeonhole k-mers, plus the rest of its
  /// non-overlapping k-mers when it votes.
  std::vector<Seed> seeds_;
  std::vector<std::uint32_t> seed_bounds_;  // per sequence, like bounds_
  /// Per sequence: supporting seeds a candidate needs (0 = no vote).
  std::vector<int> votes_needed_;
  /// CSR bucket [begin, end) of each seed in each shard, seed-major.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> buckets_;
  /// One sequence's raw hits, each its diagonal tagged with its seed; it
  /// only grows, and the lone-hit pass compacts a voting sequence's hits
  /// to their front before they are sorted.
  std::vector<std::int64_t> gather_;
  std::vector<std::uint64_t> shard_tally_;
};

class ReadMapper {
 public:
  /// Multi-chromosome mapper: one k-mer index and one encoded reference
  /// over the concatenated text; mappings carry global positions that the
  /// reference set maps back to (chromosome, local position).  Builds
  /// both from the text on the mapper's pool: the index, then the 2-bit
  /// encoding.
  ReadMapper(ReferenceSet reference, MapperConfig config);
  /// Single-sequence convenience (the chromosome is named
  /// "synthetic_chr1", matching the synthetic-genome tooling).
  ReadMapper(std::string genome, MapperConfig config);
  /// Preloaded-index mapper: adopts an already-built (typically mmap'd,
  /// view-mode) sharded index and 2-bit encoding instead of scanning the
  /// genome (MappedIndexFile::seed_index().Alias() and encoding()).  The
  /// index's k must equal `config.k`, and its genome_length and the
  /// encoding's length the reference length; throws std::invalid_argument
  /// otherwise.  The index's shard layout overrides the config's: it is
  /// baked into the persisted CSR payload.  The backing storage (the
  /// MappedIndexFile) must outlive the mapper.
  ReadMapper(ReferenceSet reference, SeedIndex index,
             const ReferenceEncodingView& encoding, MapperConfig config);
  ~ReadMapper();

  const ReferenceSet& reference() const { return ref_; }
  std::string_view genome() const { return ref_.text(); }
  /// The genome's 2-bit encoding with its N-mask: the windows every
  /// streaming driver's filter slices (pipeline/chunk_filter.hpp).
  const ReferenceEncodingView& encoding() const { return encoding_; }
  const MapperConfig& config() const { return config_; }
  const SeedIndex& index() const { return index_; }
  /// The mapper's worker pool (MapperConfig::verify_threads).  ThreadPool
  /// is thread-safe, so a const mapper lends it to the drivers that borrow
  /// it: StreamFastqToSam, paired mapping and the daemon.
  ThreadPool* pool() const { return pool_.get(); }

  /// Maps `reads` with the unvoted seed set and reports Table 3's
  /// statistics: the harness of bench_whole_genome, bench_batch_size,
  /// bench_paired's single-end baseline and the examples.  When `filter`
  /// is non-null it is used as the pre-alignment stage (an engine with no
  /// reference gets the mapper's encoding on first use).  `out`
  /// (optional) receives every verified mapping, grouped by read
  /// (WriteSamRecordsMultiChrom's input).
  MappingStats MapReads(const std::vector<std::string>& reads,
                        GateKeeperGpuEngine* filter,
                        std::vector<MappingRecord>* out = nullptr);

  /// Chunked seeding, the lookup path behind every driver: seeds each of
  /// `reads` and its reverse complement against the index, for any number
  /// of reads (the mapping paths pass kSeedChunkReads at a time), and
  /// emits the candidate set `vote` names.  Candidates are global, never
  /// span a chromosome junction, and equal what seeding each read alone
  /// yields.
  /// Publishes the seeding counters (gkgpu_candidates_seeded_total and,
  /// on sharded indexes, its {shard} split, both counting what the kernel
  /// emits; gkgpu_candidates_voted_out_total for the vote's cut) once per
  /// call.
  void SeedReads(std::span<const std::string_view> reads, SeedChunk* chunk,
                 SeedVote vote) const;

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
                  std::vector<SeedChunk::Seed>* seeds) const;
  /// The kernel behind SeedReads, three passes over chunk->seqs_: select
  /// every sequence's seeds (codes through the shared base-code table) and
  /// prefetch their offset-table entries; read each bucket's bounds and
  /// prefetch its first position; then gather each sequence's hits into
  /// `gather` and turn them into candidates.  A voting sequence first
  /// counts its hits per bucket of 2^s > e diagonals and drops the lone
  /// ones (no other hit in the bucket or either neighbour: they cannot
  /// pass or support a vote, so each lone pigeonhole hit in a valid window
  /// is one voted-out window); the survivors are sorted and scanned with
  /// a cursor over the chromosome ends.  More than 255 hits, or no vote:
  /// every hit is sorted and scanned.
  void SeedSequences(SeedChunk* chunk, SeedVote vote,
                     std::vector<std::int64_t>* gather) const;
  void CountSeeded(SeedChunk* chunk, std::uint64_t voted_out) const;

  ReferenceSet ref_;
  MapperConfig config_;
  // Declared before index_ and owned_encoding_: the FASTA constructor
  // builds both on it.
  std::unique_ptr<ThreadPool> pool_;
  SeedIndex index_;
  ReferenceEncoding owned_encoding_;  // empty when viewed from a file
  ReferenceEncodingView encoding_;
  std::vector<obs::Counter> shard_candidates_;  // empty on one shard
};

}  // namespace gkgpu

#endif  // GKGPU_MAPPER_MAPPER_HPP
