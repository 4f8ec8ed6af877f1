// Strand-aware paired-end mapping subsystem.
//
// A read pair constrains itself: Illumina FR pairs map on opposite strands
// of one chromosome with a fragment length drawn from a tight
// distribution, so candidate locations that no opposite-strand mate
// location can complete are pruned *before* pre-alignment filtering and
// verification — pairing is itself a filter stage, composing with
// GateKeeper-GPU (SOAP3-dp and GenPairX apply the same lever).  The
// subsystem:
//
//   * seeds both mates on both strands (reverse-complement seeding against
//     the one forward k-mer index);
//   * prunes each mate's candidates to those with a concordant
//     opposite-strand partner within the insert window;
//   * filters survivors with the caller's host filter, one call per chunk
//     of pairs (the strand bit rides inside CandidatePair; windows come
//     from the mapper's reference encoding), and verifies with the Myers
//     bit-vector kernel (align/myers.hpp);
//   * selects the best concordant combination under a fitted insert-size
//     model (mean/sigma learned online from confident pairs);
//   * rescues a lost mate with a Smith-Waterman-style fit alignment
//     (align/local.hpp) over the window the model predicts when only one
//     mate maps — recovering indel-bearing placements the per-offset
//     banded scans it replaced could not see;
//   * scores every record with a computed MAPQ (mapper/mapq.hpp): proper
//     pairs from the best/second-best concordant-combination score gap
//     (both mates' evidence combined), everything else from the mate's
//     own placement multiplicity; tied placements score 0 and unmapped
//     records 0 — never 255;
//   * optionally marks PCR/optical duplicates (FLAG 0x400) across every
//     record class: proper pairs keyed on (chromosome, position, strand,
//     TLEN), discordant pairs on both ends' (position, strand), and
//     single-end records on the mapped mate's (position, strand); the
//     first record seen on a signature keeps its flags, every later copy
//     is marked;
//   * emits full SAM pair semantics: FLAG 0x1/0x2/0x4/0x8/0x10/0x20/
//     0x40/0x80 (+0x400), RNEXT/PNEXT/TLEN, reverse-complemented SEQ and
//     reversed QUAL on strand-flipped records, NM and RG:Z tags.
//
// One driver maps pairs, from vectors or from a paired FASTQ reader
// (both PairedEndMapper::MapPairs): chunk workers on the mapper's pool
// (pipeline/ordered_chunks.hpp) each seed, prune, filter and verify a
// chunk of kSeedChunkReads / 2 pairs, and the in-order emitter finalizes
// each pair (pairing, SW rescue, MAPQ, SAM) strictly in input order, so
// the insert-size model evolves identically whatever the worker count.
#ifndef GKGPU_PAIRED_PAIRED_HPP
#define GKGPU_PAIRED_PAIRED_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "filters/filter.hpp"
#include "io/paired_fastq.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mapq.hpp"
#include "paired/insert_model.hpp"
#include "pipeline/pipeline.hpp"

namespace gkgpu {

struct PairedConfig {
  /// Largest fragment length considered concordant (also the pruning
  /// window and the un-fitted mate-rescue scan bound).
  std::int64_t max_insert = 1000;
  bool mate_rescue = true;
  /// Mark duplicate pairs (FLAG 0x400) sharing a fragment signature —
  /// (chromosome, position, strand, TLEN); the first occurrence stays
  /// unmarked.  CLI --mark-duplicates.
  bool mark_duplicates = false;
  /// Pixel-distance component of duplicate marking (mark_duplicates
  /// only): a later copy of a proper-pair signature whose read name
  /// carries Illumina tile:x:y coordinates within this many pixels of an
  /// earlier copy on the same tile classifies as an *optical* duplicate
  /// (counted apart from PCR duplicates — both still flag 0x400).
  /// <= 0 disables the classification.  CLI --optical-dup-distance.
  int optical_dup_distance = 0;
  /// MAPQ ceiling (mapper/mapq.hpp).  CLI --mapq-cap.
  int mapq_cap = kDefaultMapqCap;
  /// Read-group ID: adds RG:Z:<id> to every record ("" = none).  The @RG
  /// header line is the caller's (WriteSamHeader's read_group parameter).
  std::string read_group;
};

/// One paired run's result: the pair classes, duplicates, insert model
/// and total time, which only the in-order emitter sees, plus the counts
/// bench/e2e and bench_paired read.  The funnel (seeded, pruned, filter
/// verdicts, rescued mates, reads mapped and unmapped) is the registry's
/// (obs/names.hpp), and the stage histograms hold the per-stage times.
struct PairedStats {
  std::uint64_t pairs = 0;
  std::uint64_t skipped_pairs = 0;  // mate length != read length
  std::uint64_t proper_pairs = 0;
  std::uint64_t discordant_pairs = 0;
  std::uint64_t single_end_pairs = 0;  // one mate mapped, rescue failed
  std::uint64_t unmapped_pairs = 0;
  std::uint64_t rescued_mates = 0;
  /// Proper pairs flagged 0x400 (mark_duplicates only; later copies of an
  /// already-seen fragment signature).
  std::uint64_t duplicate_pairs = 0;
  /// Subset of duplicate_pairs whose tile:x:y read-name coordinates sit
  /// within optical_dup_distance pixels of an earlier copy on the same
  /// tile (optical_dup_distance > 0 only).
  std::uint64_t optical_duplicate_pairs = 0;
  /// Discordant pairs flagged 0x400 — both ends' (position, strand)
  /// already seen on an earlier discordant pair.
  std::uint64_t duplicate_discordant_pairs = 0;
  /// Single-end records flagged 0x400 — the mapped mate's
  /// (position, strand) already seen on an earlier single-end record.
  std::uint64_t duplicate_singletons = 0;

  std::uint64_t candidates_seeded = 0;  // oriented candidates before pairing
  std::uint64_t candidates_paired = 0;  // survivors entering filtration
  std::uint64_t verification_pairs = 0;
  std::uint64_t rejected_pairs = 0;

  /// SW mate-rescue fit alignments run.
  std::uint64_t rescue_invocations = 0;
  /// Always zero: the mate-level lane early-out and the rescue seed gate
  /// that counted here are gone.  bench/e2e still reads both fields; a
  /// later benchmark change removes them.
  std::uint64_t earlyout_lanes = 0;
  std::uint64_t rescue_gate_skips = 0;

  double insert_mean = 0.0;
  double insert_sigma = 0.0;
  std::uint64_t insert_observations = 0;

  double total_seconds = 0.0;

  /// How many times fewer (read, reference) pairs the verifier faced than
  /// independent single-end mapping would have produced — pairing's
  /// candidate-pruning leverage (> 1 on concordant data).
  double PruningRatio() const {
    return candidates_paired == 0
               ? 0.0
               : static_cast<double>(candidates_seeded) /
                     static_cast<double>(candidates_paired);
  }
};

class PairedEndMapper {
 public:
  /// Borrows the single-end mapper for its reference, k-mer index,
  /// seeding and worker pool; the mapper must outlive this object.  The
  /// mapper's read_length / error_threshold govern both mates.
  PairedEndMapper(const ReadMapper& mapper, PairedConfig config);

  const PairedConfig& config() const { return config_; }

  /// Maps r1[i] with r2[i] (equal sizes; mate names must match),
  /// pre-filtering candidates with `filter` at the mapper's error
  /// threshold (null = No Filter), and writes two SAM records per pair to
  /// `sam` (may be null for stats only; the header is the caller's).
  /// Pairs whose mates are not the configured read length are emitted
  /// unmapped.  With a filter, a read length beyond the filter kernels'
  /// capacity throws std::invalid_argument before any SAM is written.  A
  /// mate-name mismatch throws std::invalid_argument once the pairs before
  /// it are written.
  PairedStats MapPairs(const std::vector<FastqRecord>& r1,
                       const std::vector<FastqRecord>& r2,
                       const PreAlignmentFilter* filter, std::ostream* sam);

  /// The paired streaming entry point: the same, reading the pairs from
  /// `reader` under bounded memory; a malformed record is thrown once the
  /// pairs before it are written.
  PairedStats MapPairs(PairedFastqReader& reader,
                       const PreAlignmentFilter* filter, std::ostream* sam);

 private:
  /// Fills the next pair; false at end of input.
  using PairSource = std::function<bool(FastqRecord* r1, FastqRecord* r2)>;
  PairedStats Map(const PairSource& next, const PreAlignmentFilter* filter,
                  std::ostream* sam);

  const ReadMapper& mapper_;
  PairedConfig config_;
};

/// bench/e2e only, until it moves to PairedEndMapper::MapPairs(reader,
/// ...): maps with pipeline::EngineShimFilter(engine != nullptr); `pcfg`
/// is unused (see pipeline/pipeline.hpp).
PairedStats StreamPairedFastqToSam(PairedFastqReader& reader,
                                   const ReadMapper& mapper,
                                   GateKeeperGpuEngine* engine,
                                   const PairedConfig& config,
                                   pipeline::PipelineConfig pcfg,
                                   std::ostream* sam);

}  // namespace gkgpu

#endif  // GKGPU_PAIRED_PAIRED_HPP
