#include "pipeline/read_to_sam.hpp"

#include <array>
#include <exception>
#include <ostream>
#include <span>

#include "io/fastq.hpp"
#include "obs/names.hpp"

namespace gkgpu::pipeline {

void ReadChunkMapper::Map(const ReadChunkInput& in, ReadChunkOutput* out) {
  const std::span<const std::string_view> seqs(in.seqs.data(), in.size);
  out->sam.clear();
  out->sam_end.clear();
  out->records.clear();
  {
    const StageTimer timer(stages_.source, "source", in.take_seconds);
    mapper_.SeedReads(seqs, &seeds_, SeedVote::kOn);
  }
  candidates_.clear();
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    for (const OrientedCandidate oc : seeds_.candidates(j)) {
      candidates_.push_back(
          {static_cast<std::uint32_t>(j), oc.strand, 0, oc.pos});
    }
  }
  filter_.Filter(seqs, candidates_, stages_, &results_);

  const StageTimer timer(stages_.verify, "verify");
  const ReferenceSet& ref = mapper_.reference();
  const std::string_view genome = mapper_.genome();
  const int e = mapper_.config().error_threshold;
  std::size_t c = 0;
  std::uint64_t mapped_reads = 0;
  for (std::size_t j = 0; j < seqs.size(); ++j) {
    bool mapped = false;
    for (const OrientedCandidate oc : seeds_.candidates(j)) {
      if (results_[c++].accept == 0) continue;
      // Reverse-strand candidates verify the read's reverse complement
      // (which the seeding kernel computed) against the forward window.
      const std::string_view read =
          oc.strand != 0 ? std::string_view(seeds_.rc(j)) : seqs[j];
      const std::string_view window =
          genome.substr(static_cast<std::size_t>(oc.pos), read.size());
      const int edits = verifier_.Distance(read, window, e);
      if (edits < 0) continue;
      mapped = true;
      const int chrom = ref.Locate(oc.pos);
      group_.AddMapping(oc.strand != 0 ? kSamReverse : 0, read, window, chrom,
                        ref.ToLocal(chrom, oc.pos), edits);
    }
    mapped_reads += mapped ? 1 : 0;
    out->records.push_back(
        group_.FlushGroup(&out->sam, ref, in.names[j], *in.options[j]));
    out->sam_end.push_back(out->sam.size());
  }
  obs::ReadsMapped().Inc(mapped_reads);
  obs::ReadsUnmapped().Inc(seqs.size() - mapped_reads);
}

namespace {

/// One chunk of the FASTQ stream: up to kSeedChunkReads mappable records.
struct FastqChunk {
  std::array<FastqRecord, kSeedChunkReads> recs;
  ReadChunkInput in;
  ReadChunkOutput out;
};

}  // namespace

ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                const PreAlignmentFilter* filter,
                                const ReadToSamConfig& config,
                                std::ostream* sam) {
  const ChunkFilter chunk_filter(filter, mapper);
  const StageHistograms stages;
  const std::size_t read_length =
      static_cast<std::size_t>(mapper.config().read_length);
  ThreadPool& pool = *mapper.pool();
  const std::size_t workers = ChunkWorkers(pool);
  std::vector<ReadChunkMapper> chunk_mappers(
      workers, ReadChunkMapper(mapper, chunk_filter, stages));

  ReadToSamStats out;
  FastqStreamReader reader(fastq);
  // A malformed record is raised only once the reads before it are handed
  // out, so the output up to it does not depend on the chunk size.
  std::exception_ptr read_error;
  const auto take = [&](FastqChunk& chunk) {
    if (read_error) std::rethrow_exception(read_error);
    const WallTimer timer;
    ReadChunkInput& in = chunk.in;
    in.size = 0;
    try {
      while (in.size < kSeedChunkReads && reader.Next(&chunk.recs[in.size])) {
        ++out.reads;
        const FastqRecord& rec = chunk.recs[in.size];
        if (rec.seq.size() != read_length) {
          ++out.skipped_reads;
          continue;
        }
        in.names[in.size] = rec.name;
        in.seqs[in.size] = rec.seq;
        in.options[in.size] = &config;
        ++in.size;
      }
    } catch (...) {
      read_error = std::current_exception();
    }
    if (in.size == 0 && read_error) std::rethrow_exception(read_error);
    in.take_seconds = timer.Seconds();
    return in.size > 0;
  };
  const auto map = [&](FastqChunk& chunk, std::size_t worker) {
    chunk_mappers[worker].Map(chunk.in, &chunk.out);
  };
  const auto emit = [&](FastqChunk& chunk) {
    if (sam != nullptr) {
      sam->write(chunk.out.sam.data(),
                 static_cast<std::streamsize>(chunk.out.sam.size()));
    }
  };
  RunOrderedChunks<FastqChunk>(pool, workers, take, map, emit);
  return out;
}

ReadToSamStats StreamFastqToSam(std::istream& fastq, const ReadMapper& mapper,
                                GateKeeperGpuEngine* engine,
                                const ReadToSamConfig& config,
                                std::ostream* sam) {
  return StreamFastqToSam(fastq, mapper, EngineShimFilter(engine != nullptr),
                          config, sam);
}

}  // namespace gkgpu::pipeline
