// StreamFastqToSam — the single-end streaming driver: FASTQ in, ordered
// SAM out, on chunk workers over the mapper's pool
// (pipeline/ordered_chunks.hpp).  Each worker takes the next
// kSeedChunkReads reads of the stream and maps them end to end with
// ReadChunkMapper — voted seeding against the mapper's k-mer index, one
// filter call over the chunk's candidates (windows sliced from the
// mapper's reference encoding), Myers verification, then each read's SAM
// lines, grouped and scored per read by SamGroupBuffer and formatted by
// AppendSam (mapper/sam.hpp) into the chunk's byte buffer, addressed
// (chromosome, local position) through the mapper's ReferenceSet.  Chunks
// are written in input order; memory stays bounded by the reorder window
// no matter the input size.  `gkgpu map --reads` runs this driver, and
// the daemon maps its chunks with the same ReadChunkMapper.
#ifndef GKGPU_PIPELINE_READ_TO_SAM_HPP
#define GKGPU_PIPELINE_READ_TO_SAM_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "align/banded.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "pipeline/chunk_filter.hpp"
#include "pipeline/ordered_chunks.hpp"

namespace gkgpu::pipeline {

/// The stream's SAM options (mapper/sam.hpp): read group, MAPQ cap and
/// secondary policy, applied to every read; the matching @RG header line
/// is the caller's (WriteSamHeader's read_group).
using ReadToSamConfig = SamGroupOptions;

struct ReadToSamStats {
  std::uint64_t reads = 0;
  std::uint64_t skipped_reads = 0;  // length != the mapper's read length
  std::uint64_t candidates = 0;     // voted seeding output = filter input
  std::uint64_t accepted = 0;       // filter accepts, bypasses included
  std::uint64_t rejected = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t verified_pairs = 0;  // candidates that entered verification
  std::uint64_t mappings = 0;        // verified within the threshold
  std::uint64_t mapped_reads = 0;
};

/// One chunk of single-end reads, by view (the caller's chunk owns the
/// bytes): read i is (names[i], seqs[i]), of the mapper's read length,
/// formatted under *options[i].
struct ReadChunkInput {
  std::array<std::string_view, kSeedChunkReads> names;
  std::array<std::string_view, kSeedChunkReads> seqs;
  std::array<const SamGroupOptions*, kSeedChunkReads> options;
  std::size_t size = 0;
  /// Time the take spent on this chunk; it joins seeding in "source".
  double take_seconds = 0.0;
};

/// What ReadChunkMapper::Map yields for one chunk.
struct ReadChunkOutput {
  /// Every read's SAM lines, in input order; read i's lines end at
  /// sam_end[i] and hold records[i] records.
  std::string sam;
  std::vector<std::size_t> sam_end;
  std::vector<std::size_t> records;
  ReadToSamStats stats;  // reads and skipped_reads stay the caller's
};

/// One worker's single-end chunk mapping and its scratch.
class ReadChunkMapper {
 public:
  /// `mapper`, `filter` and `stages` must outlive this.
  ReadChunkMapper(const ReadMapper& mapper, const ChunkFilter& filter,
                  const StageHistograms& stages)
      : mapper_(mapper), filter_(filter), stages_(stages) {}

  /// Maps the chunk's reads end to end.
  void Map(const ReadChunkInput& in, ReadChunkOutput* out);

 private:
  const ReadMapper& mapper_;
  const ChunkFilter& filter_;
  const StageHistograms& stages_;
  SeedChunk seeds_;
  std::vector<CandidatePair> candidates_;
  std::vector<PairResult> results_;
  BandedVerifier verifier_;
  SamGroupBuffer group_;
};

/// Streams `fastq` through seed -> candidate filtration -> verify -> SAM.
/// The mapper's read length defines which reads are mappable.  `filter`
/// (null = No Filter) runs at the mapper's error threshold; with one, a
/// read length beyond the filter kernels' capacity throws
/// std::invalid_argument before any SAM is written (ChunkFilter).  `sam`
/// may be null to run for the statistics only (the header is written by
/// the caller so multiple streams can share one file; use
/// WriteSamHeader(out, mapper.reference()) for the matching @SQ lines).  A
/// malformed record is thrown once the SAM of every record before it is
/// written.
ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                const PreAlignmentFilter* filter,
                                const ReadToSamConfig& config,
                                std::ostream* sam);

/// bench/e2e only, until it moves to the filter signature: maps with
/// EngineShimFilter(engine != nullptr).
ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                GateKeeperGpuEngine* engine,
                                const ReadToSamConfig& config,
                                std::ostream* sam);

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_READ_TO_SAM_HPP
