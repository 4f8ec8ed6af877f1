// Google-benchmark microbenchmarks of the filtration kernels themselves:
// per-pair latency of the GateKeeper kernel (simd::GateKeeperFiltration64,
// what GateKeeperFilter::Filter and the scalar batch tier run) across read
// lengths and error thresholds, its amendment/run-count primitives, the
// baselines, and the exact aligners — the numbers behind the throughput
// tables — plus the CIGAR paths (Hamming, diagonal-transition traceback,
// BandedAlign), mate rescue's fit DP, the reverse complement of an
// encoded read, the seeding kernel's per-read cost at chunk sizes 1 and
// kSeedChunkReads, unvoted and voted, on an 8 Mbp one-chromosome genome
// and on se-large's shape, and the FASTQ parser's per-read cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "align/myers.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/encoded.hpp"
#include "encode/revcomp.hpp"
#include "filters/magnet.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "io/fastq.hpp"
#include "mapper/mapper.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"
#include "sim/read_sim.hpp"
#include "simd/bitops64.hpp"
#include "simd/gatekeeper_batch.hpp"

namespace gkgpu {
namespace {

struct EncodedPair {
  Word read[kMaxEncodedWords];
  Word ref[kMaxEncodedWords];
};

EncodedPair MakeEncoded(int length, int edits, std::uint64_t seed) {
  const SequencePair p = MakePairWithEdits(length, edits, 0.3, seed);
  EncodedPair enc;
  EncodeSequence(p.read, enc.read);
  EncodeSequence(p.ref, enc.ref);
  return enc;
}

void BM_GateKeeperFiltration64(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const int e = static_cast<int>(state.range(1));
  const EncodedPair p = MakeEncoded(length, e + 2, 99);
  GateKeeperParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::GateKeeperFiltration64(p.read, p.ref, length, e, params));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GateKeeperFiltration64)
    ->ArgsProduct({{100, 150, 250}, {0, 2, 5, 10}});

// Masks of 128, 256 and 512 bits: the reduced masks of 100-128, 256 and
// 512 bp reads (the original mode's 2-bit masks are twice as wide).
void BM_Amendment64(benchmark::State& state) {
  simd::U64 mask[simd::kMaxWords64];
  for (int i = 0; i < simd::kMaxWords64; ++i) {
    mask[i] = 0x5A5A5A5A5A5A5A5AULL ^ (0x0101010101010101ULL * i);
  }
  const int nwords = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simd::U64 scratch[simd::kMaxWords64];
    std::memcpy(scratch, mask, sizeof(scratch));
    simd::AmendShortZeroRuns64(scratch, nwords);
    benchmark::DoNotOptimize(scratch[0]);
  }
}
BENCHMARK(BM_Amendment64)->Arg(2)->Arg(4)->Arg(8);

void BM_CountOneRuns64(benchmark::State& state) {
  simd::U64 mask[simd::kMaxWords64];
  for (int i = 0; i < simd::kMaxWords64; ++i) {
    mask[i] = 0x93A5C71E5B2D4F86ULL * static_cast<simd::U64>(i + 1);
  }
  const int nwords = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::CountOneRuns64(mask, nwords));
  }
}
BENCHMARK(BM_CountOneRuns64)->Arg(2)->Arg(8);

void BM_BaselineFilter(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int e = 5;
  const SequencePair p = MakePairWithEdits(100, 7, 0.3, 7);
  MagnetFilter magnet;
  ShoujiFilter shouji;
  SneakySnakeFilter snake;
  PreAlignmentFilter* filter =
      which == 0 ? static_cast<PreAlignmentFilter*>(&magnet)
                 : which == 1 ? static_cast<PreAlignmentFilter*>(&shouji)
                              : static_cast<PreAlignmentFilter*>(&snake);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter->Filter(p.read, p.ref, e));
  }
  state.SetLabel(std::string(filter->name()));
}
BENCHMARK(BM_BaselineFilter)->DenseRange(0, 2);

// Legs 2-5 are the mapper's verifier at its default e=5, legs 6-9 the
// Myers kernel (its fallback and oracle) on the same four pairs: one the
// verifier accepts (3 substitutions), one it rejects (25 edits), so the
// early exit on far pairs shows against the full scan, two substitutions
// (the Hamming path, no DP) and an equal-length pair with two indels
// (distance 4, 24 mismatches: the band kernel).
void BM_ExactAligners(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  constexpr int kE = 5;
  const int pair = which < 2 ? 0 : (which - 2) % 4 + 1;
  const SequencePair p = pair == 1   ? MakePairWithEdits(100, 3, 0.0, 11)
                         : pair == 2 ? MakePairWithEdits(100, 25, 0.3, 11)
                         : pair == 3 ? MakePairWithEdits(100, 2, 0.0, 11)
                         : pair == 4 ? MakePairWithEdits(100, 2, 1.0, 11)
                                     : MakePairWithEdits(100, 7, 0.3, 11);
  MyersAligner myers;
  BandedVerifier verifier;
  for (auto _ : state) {
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(NwEditDistance(p.read, p.ref));
        break;
      case 1:
        benchmark::DoNotOptimize(myers.Distance(p.read, p.ref));
        break;
      case 2:
      case 3:
      case 4:
      case 5:
        benchmark::DoNotOptimize(verifier.Distance(p.read, p.ref, kE));
        break;
      default:
        benchmark::DoNotOptimize(myers.DistanceWithin(p.read, p.ref, kE));
        break;
    }
  }
  const char* const kPairs[] = {"accept", "far", "hamming", "indel"};
  std::string label = which == 0 ? "NW-DP" : "Myers";
  if (which >= 2) {
    label = (which < 6 ? "Verifier-e5-" : "Myers-e5-") +
            std::string(kPairs[pair - 1]);
  }
  state.SetLabel(label);
}
BENCHMARK(BM_ExactAligners)->DenseRange(0, 9);

// A 100 bp read against its window, as the paired emitter and
// SamGroupBuffer derive a record's CIGAR: `subs` substitutions (0-3),
// plus one insertion and one deletion unless `kind` is 0.  Kind 0 takes
// CigarFor's Hamming path, kind 1 its diagonal-transition traceback, and
// kind 2 runs BandedAlign, the traceback's fallback and oracle, on kind
// 1's pair.
void BM_CigarFor(benchmark::State& state) {
  const int subs = static_cast<int>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  std::string window = GenerateGenome(101, 51);
  std::string read = window;
  if (kind != 0) {
    read.insert(30, 1, read[30] == 'A' ? 'C' : 'A');
    read.erase(71, 1);
  }
  window.resize(100);
  read.resize(100);
  constexpr std::size_t kSubstituted[] = {15, 50, 85};
  for (int s = 0; s < subs; ++s) {
    const std::size_t at = kSubstituted[s];
    read[at] = read[at] == 'G' ? 'T' : 'G';
  }
  const int edits = MyersAligner().Distance(read, window);
  for (auto _ : state) {
    if (kind == 2) {
      benchmark::DoNotOptimize(BandedAlign(read, window, edits));
    } else {
      benchmark::DoNotOptimize(CigarFor(read, window, edits));
    }
  }
  const char* const kKinds[] = {"hamming", "traceback", "BandedAlign"};
  state.SetLabel(std::string(kKinds[kind]) + ", d " + std::to_string(edits) +
                 ", " + CigarFor(read, window, edits));
}
BENCHMARK(BM_CigarFor)
    ->ArgNames({"subs", "kind"})
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}});

// Mate rescue's fit DP (LocalAligner::BestFit) for a 100 bp mate at
// e = 5: the 345-base window a fitted insert model (350 +- 30) predicts,
// starts bounded at 240, and the ~1,000-base window of every admissible
// start before the model fits (max_insert 1,000), each with the mate
// planted at the window's middle start (two substitutions and a
// deletion) or absent (a rescue that fails).
void BM_BestFit(benchmark::State& state) {
  const int window_bp = static_cast<int>(state.range(0));
  const bool planted = state.range(1) != 0;
  constexpr int kLength = 100;
  constexpr int kE = 5;
  const int max_begin = window_bp - kLength - kE;
  const std::string window =
      GenerateGenome(static_cast<std::size_t>(window_bp), 55);
  std::string read = GenerateGenome(kLength, 56);
  if (planted) {
    read = window.substr(static_cast<std::size_t>(max_begin / 2), kLength + 1);
    read.erase(60, 1);
    read[20] = read[20] == 'A' ? 'C' : 'A';
    read[80] = read[80] == 'A' ? 'C' : 'A';
  }
  LocalAligner aligner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.BestFit(read, window, kE, max_begin));
  }
  state.SetLabel(std::to_string(window_bp) + "-base window, max_begin " +
                 std::to_string(max_begin) +
                 (planted ? ", mate planted" : ", mate absent"));
}
BENCHMARK(BM_BestFit)
    ->ArgNames({"window", "planted"})
    ->ArgsProduct({{345, 1005}, {1, 0}});

// Reorienting one encoded read, as LoadBlockPair does for every
// reverse-strand candidate, at the mapper's read length and the kernels'
// longest.
void BM_ReverseComplementEncoded(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const EncodedPair enc = MakeEncoded(length, 0, 13);
  Word out[kMaxEncodedWords];
  for (auto _ : state) {
    ReverseComplementEncoded(enc.read, length, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ReverseComplementEncoded)->Arg(100)->Arg(512);

// A seeding workload: reads and the mapper they are seeded against.
struct SeedWorkload {
  std::vector<std::string> reads;
  ReadMapper mapper;
};

// Genome 0: 8 Mbp in one chromosome, forward-strand reads.  Genome 1:
// bench/e2e's se-large shape, 32 Mbp in four chromosomes with every other
// read reverse-complemented, so both strands' seeds hit and the junction
// tests see several chromosomes.  100k reads either way, touching more
// index lines than a last-level cache holds.
SeedWorkload MakeSeedWorkload(bool se_large) {
  MapperConfig cfg;
  cfg.k = 12;
  cfg.read_length = 100;
  cfg.error_threshold = 5;
  cfg.verify_threads = 1;
  if (!se_large) {
    std::string genome = GenerateGenome(8'000'000, 41);
    std::vector<std::string> reads = SimulateReadSequences(
        genome, 100'000, 100, ReadErrorProfile::Illumina(), 42);
    return {std::move(reads), ReadMapper(std::move(genome), cfg)};
  }
  constexpr std::size_t kChromosomeBp = 8'000'000;
  const std::string genome = GenerateGenome(4 * kChromosomeBp, 43);
  ReferenceSet ref;
  std::vector<std::string> reads;
  for (std::size_t c = 0; c < 4; ++c) {
    const std::string_view chrom =
        std::string_view(genome).substr(c * kChromosomeBp, kChromosomeBp);
    ref.Add("chr" + std::to_string(c + 1), chrom);
    for (SimulatedRead& r : SimulateReads(
             chrom, 25'000, 100, ReadErrorProfile::Illumina(), 44 + c)) {
      reads.push_back(reads.size() % 2 == 1 ? ReverseComplement(r.seq)
                                            : std::move(r.seq));
    }
  }
  return {std::move(reads), ReadMapper(std::move(ref), cfg)};
}

// Each workload is built on first use, so a filtered run builds one.
template <bool kSeLarge>
const SeedWorkload& CachedSeedWorkload() {
  static const SeedWorkload w = MakeSeedWorkload(kSeLarge);
  return w;
}

// Seeding, per read, through ReadMapper::SeedReads at chunk sizes 1 (each
// lookup's misses wait in turn) and kSeedChunkReads (a chunk's misses
// overlap), unvoted and voted (the vote looks up 8 seeds per strand
// instead of 6 and cuts most candidates), on both genomes above.  One
// k=12 index each: its offset table is 64 MiB at any genome size, so
// every lookup misses cache and TLB.
void BM_SeedReads(benchmark::State& state) {
  const bool se_large = state.range(2) != 0;
  const SeedWorkload& w =
      se_large ? CachedSeedWorkload<true>() : CachedSeedWorkload<false>();
  const std::vector<std::string_view> views(w.reads.begin(), w.reads.end());
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  const SeedVote vote = state.range(1) != 0 ? SeedVote::kOn : SeedVote::kOff;
  SeedChunk seeds;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next + chunk > views.size()) next = 0;
    w.mapper.SeedReads(std::span(views).subspan(next, chunk), &seeds, vote);
    benchmark::DoNotOptimize(seeds.candidates(0).data());
    next += chunk;
  }
  state.counters["per_read"] = benchmark::Counter(
      static_cast<double>(state.iterations() * chunk),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(std::string(vote == SeedVote::kOn ? "voted" : "unvoted") +
                 (se_large ? ", 32 Mbp 4 chromosomes, both strands"
                           : ", 8 Mbp 1 chromosome, forward"));
}
BENCHMARK(BM_SeedReads)
    ->ArgNames({"chunk", "vote", "genome"})
    ->ArgsProduct(
        {{1, static_cast<std::int64_t>(kSeedChunkReads)}, {0, 1}, {0, 1}});

// The one FASTQ parser, per read: a 1,000-read buffer appended whole to a
// FastqParser (what a daemon session does with its kData payloads), and a
// 50k-read stream through FastqStreamReader's 16 KiB reads (what `map
// --reads` does).  Every mapping path takes its reads under
// RunOrderedChunks' input lock, so this parse is serial work.
void BM_FastqParse(benchmark::State& state) {
  const bool stream = state.range(0) != 0;
  const std::size_t reads = stream ? 50'000 : 1'000;
  const std::vector<std::string> seqs = SimulateReadSequences(
      GenerateGenome(1'000'000, 45), reads, 100, ReadErrorProfile::Illumina(),
      46);
  std::vector<FastqRecord> records;
  for (std::size_t i = 0; i < reads; ++i) {
    records.push_back({"read" + std::to_string(i), seqs[i], ""});
  }
  std::ostringstream text;
  WriteFastq(text, records);
  std::istringstream in(text.str());
  FastqRecord rec;
  for (auto _ : state) {
    std::size_t parsed = 0;
    if (stream) {
      in.clear();
      in.seekg(0);
      FastqStreamReader reader(in);
      while (reader.Next(&rec)) ++parsed;
    } else {
      FastqParser parser;
      parser.Append(text.view());
      parser.Finish();
      while (parser.Next(&rec)) ++parsed;
    }
    benchmark::DoNotOptimize(parsed);
    benchmark::DoNotOptimize(rec.seq.data());
  }
  state.counters["per_read"] = benchmark::Counter(
      static_cast<double>(state.iterations() * reads),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(stream ? "FastqStreamReader, 50k reads"
                        : "FastqParser, 1k-read buffer");
}
BENCHMARK(BM_FastqParse)->ArgName("stream")->Arg(0)->Arg(1);

}  // namespace
}  // namespace gkgpu

BENCHMARK_MAIN();
