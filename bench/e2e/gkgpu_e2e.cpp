// gkgpu_e2e — the end-to-end mapping benchmark.
//
//   gkgpu_e2e --workload W --seed S [--seconds N] [--trace DIR] [--smoke]
//
// FASTQ bytes in memory go through the public entry points the CLI drives
// (pipeline::StreamFastqToSam for `gkgpu pipeline`, StreamPairedFastqToSam
// for `gkgpu map --paired --streaming`, serve::MapServer + MapOverSocket
// for `gkgpu serve` / `map-client`) with the CLI's default settings, and
// SAM bytes come out into a counting sink.  A run has four phases:
//
//   1. generate the genome and reads from --seed (untimed);
//   2. set up kSetupReps times — FASTA parse, index build, engine + reference
//      load, and for the served workload until the daemon listens — and
//      report the median as setup_s;
//   3. one untimed warm-up pass whose SAM is kept for the correctness
//      checks;
//   4. timed passes until --seconds have elapsed, each preceded by the host
//      probe (e2e_probe.hpp) and, except on the served workload (whose
//      passes are made of requests), followed by kRequestsPerPass single
//      requests.  Throughput is the median pass, request latency the
//      pooled requests.
//
// With --trace DIR the run adds a traced end-to-end pass (the program's
// stage spans on, registry deltas for the per-layer numbers) and a
// decomposed single-threaded pass that calls each layer in turn, and writes
// DIR/trace_<workload>.json.  Metrics print one per line as
// `workload metric value unit`; the last line of stdout is one JSON object
// {correct, attempted, failed, metrics} holding the end-to-end metrics, or
// with --trace the per-layer ones.  Any failed check makes it exit 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "align/banded.hpp"
#include "core/engine.hpp"
#include "e2e_io.hpp"
#include "e2e_probe.hpp"
#include "e2e_trace.hpp"
#include "encode/revcomp.hpp"
#include "gpusim/device.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/index_io.hpp"
#include "io/paired_fastq.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "paired/paired.hpp"
#include "pipeline/read_to_sam.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu::e2e {
namespace {

// The CLI's defaults: k=12, e=5, 100 bp reads, one Setup-1 device.
constexpr int kReadLength = 100;
constexpr int kErrors = 5;
constexpr int kK = 12;
constexpr int kChromosomes = 4;
constexpr int kServeThreads = 4;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMinPasses = 3;
// A request is one call of the entry point (one served job) over this many
// reads; a pair counts as two.
constexpr std::size_t kRequestReads = 1000;
// Single requests issued after each in-process pass.
constexpr std::size_t kRequestsPerPass = 16;
// Enough requests that ten lie beyond the 95th percentile.
constexpr std::size_t kMinRequests = 200;
constexpr std::size_t kSmokeMinRequests = 20;
// Reads per layer call in the decomposed pass.
constexpr std::size_t kDecomposedBatch = 4096;

struct Workload {
  const char* name;
  std::size_t genome_bp;
  bool dense_repeats;
  std::size_t reads;  // per pass: single-end reads, or pairs when paired
  bool paired = false;
  int clients = 0;  // > 0: served by the daemon to a closed loop of clients
};

// Each pass takes about 0.5 s on the baseline host, so a 10 s run holds
// about 15 of them; many short passes give a steadier median than a few
// long ones.  Why each workload exists, and the layer each one is bound
// by, is in README.md.
constexpr Workload kWorkloads[] = {
    {"se-large", 32'000'000, false, 50'000},
    {"se-repeat", 8'000'000, true, 40'000},
    {"pe-insert", 8'000'000, true, 25'000, true},
    {"serve-2c", 8'000'000, true, 40'000, false, 2},
};
constexpr Workload kSmokeWorkloads[] = {
    {"se-large", 2'000'000, false, 4'000},
    {"se-repeat", 1'000'000, true, 4'000},
    {"pe-insert", 1'000'000, true, 2'000, true},
    {"serve-2c", 1'000'000, true, 4'000, false, 2},
};

// ------------------------------------------------------------- inputs --

/// Where a simulated read came from (chromosome-local, 0-based).
struct Truth {
  std::uint32_t chrom = 0;
  std::uint8_t strand = 0;
  std::int64_t pos = 0;
};

/// One request's input: bytes [begin, end) of Inputs::fastq and
/// [begin2, end2) of Inputs::fastq2 (paired only).
struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t begin2 = 0;
  std::size_t end2 = 0;
  std::uint64_t reads = 0;
};

struct Inputs {
  std::string fasta;
  std::vector<std::string> chrom_names;
  std::string fastq;            // single-end reads, or R1 of each pair
  std::string fastq2;           // R2 (paired only)
  std::vector<Slice> requests;  // the pass cut into request-sized slices
  std::vector<Truth> truth;     // per read id; paired: 2 * id + mate
  std::uint64_t reads = 0;      // reads per pass; a pair counts as 2

  std::string_view R1(const Slice& s) const {
    return std::string_view(fastq).substr(s.begin, s.end - s.begin);
  }
  std::string_view R2(const Slice& s) const {
    return std::string_view(fastq2).substr(s.begin2, s.end2 - s.begin2);
  }
};

void AppendFastq(std::string* out, char prefix, std::uint64_t id,
                 std::string_view suffix, std::string_view seq) {
  *out += '@';
  *out += prefix;
  *out += std::to_string(id);
  *out += suffix;
  *out += '\n';
  *out += seq;
  *out += "\n+\n";
  out->append(seq.size(), 'I');
  *out += '\n';
}

Inputs Generate(const Workload& w, std::uint64_t seed) {
  Inputs in;
  GenomeProfile profile;
  if (w.dense_repeats) {
    // 400 families x 1,000 bp x 8 copies at 4% divergence on 8 Mbp: about
    // 40% of the genome is repeat copies.
    profile.repeat_families = static_cast<int>(w.genome_bp / 20'000);
    profile.repeat_length = 1000;
    profile.repeat_copies = 8;
    profile.repeat_mutation_rate = 0.04;
  }
  const std::string genome = GenerateGenome(w.genome_bp, seed, profile);
  std::vector<FastaRecord> records;
  const std::size_t per = genome.size() / kChromosomes;
  for (int c = 0; c < kChromosomes; ++c) {
    const std::size_t begin = static_cast<std::size_t>(c) * per;
    const std::size_t len =
        c + 1 == kChromosomes ? genome.size() - begin : per;
    in.chrom_names.push_back("chr" + std::to_string(c + 1));
    records.push_back({in.chrom_names.back(), genome.substr(begin, len)});
  }
  std::ostringstream fasta;
  WriteFasta(fasta, records);
  in.fasta = fasta.str();

  // Record ends, for cutting the pass into request slices.
  std::vector<std::size_t> ends;
  std::vector<std::size_t> ends2;
  std::uint64_t id = 0;
  for (int c = 0; c < kChromosomes; ++c) {
    const std::size_t count = c + 1 == kChromosomes
                                  ? w.reads - w.reads / kChromosomes * 3
                                  : w.reads / kChromosomes;
    const std::uint64_t sim_seed =
        seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(c) + 1;
    const std::string& chrom = records[static_cast<std::size_t>(c)].seq;
    const auto chrom_index = static_cast<std::uint32_t>(c);
    if (w.paired) {
      PairSimConfig cfg;
      cfg.read_length = kReadLength;
      for (const SimulatedPair& p :
           SimulatePairs(chrom, count, cfg, sim_seed)) {
        AppendFastq(&in.fastq, 'p', id, "/1", p.seq1);
        AppendFastq(&in.fastq2, 'p', id, "/2", p.seq2);
        ends.push_back(in.fastq.size());
        ends2.push_back(in.fastq2.size());
        in.truth.push_back({chrom_index, 0, p.origin1});
        in.truth.push_back({chrom_index, 1, p.origin2});
        ++id;
      }
    } else {
      // SimulateReads samples the forward strand only; every other read
      // is reverse-complemented so both strands are mapped.
      for (const SimulatedRead& r :
           SimulateReads(chrom, count, kReadLength,
                         ReadErrorProfile::Illumina(), sim_seed)) {
        const std::uint8_t strand = id % 2 == 1 ? 1 : 0;
        AppendFastq(&in.fastq, 'r', id, "",
                    strand != 0 ? ReverseComplement(r.seq) : r.seq);
        ends.push_back(in.fastq.size());
        in.truth.push_back({chrom_index, strand, r.origin});
        ++id;
      }
    }
  }
  in.reads = w.paired ? 2 * id : id;
  const std::size_t unit = w.paired ? kRequestReads / 2 : kRequestReads;
  for (std::size_t first = 0; first < ends.size(); first += unit) {
    const std::size_t last = std::min(ends.size(), first + unit);
    Slice s;
    s.begin = first == 0 ? 0 : ends[first - 1];
    s.end = ends[last - 1];
    if (w.paired) {
      s.begin2 = first == 0 ? 0 : ends2[first - 1];
      s.end2 = ends2[last - 1];
    }
    s.reads = (last - first) * (w.paired ? 2 : 1);
    in.requests.push_back(s);
  }
  return in;
}

// -------------------------------------------------------------- setup --

struct System {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<ReadMapper> mapper;
  std::unique_ptr<GateKeeperGpuEngine> engine;
  std::unique_ptr<serve::MapServer> server;
  std::atomic<bool> server_done{false};
  std::exception_ptr server_error;
  std::thread server_thread;  // last: joined before the members it uses

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    if (server != nullptr) server->Shutdown();
    if (server_thread.joinable()) server_thread.join();
  }
};

struct SetupTimes {
  double fasta_s = 0.0;
  double index_s = 0.0;
  double engine_s = 0.0;
  double total_s = 0.0;
};

void StartServer(System* sys, const std::string& socket_path) {
  serve::ServeConfig cfg;
  cfg.socket_path = socket_path;
  cfg.threads = kServeThreads;
  sys->server =
      std::make_unique<serve::MapServer>(*sys->mapper, sys->engine.get(), cfg);
  sys->server_thread = std::thread([sys] {
    try {
      sys->server->Run();
    } catch (...) {
      sys->server_error = std::current_exception();
    }
    sys->server_done.store(true);
  });
  const std::int64_t deadline = NowNs() + 30'000'000'000;
  while (!sys->server->serving()) {
    if (sys->server_done.load()) {
      if (sys->server_error) std::rethrow_exception(sys->server_error);
      throw std::runtime_error("daemon exited before serving");
    }
    if (NowNs() > deadline) throw std::runtime_error("daemon start timeout");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// From in-memory FASTA bytes to a system ready to map.
std::unique_ptr<System> SetUp(const Workload& w, const Inputs& in,
                              const std::string& socket_path, SpanLog* log,
                              SetupTimes* t) {
  auto sys = std::make_unique<System>();
  const ScopedSpan root(log, "setup", -1);
  const std::int64_t t0 = NowNs();
  ReferenceSet ref;
  {
    const ScopedSpan span(log, "setup.fasta_parse", root.id());
    ViewInput src(in.fasta);
    std::istream fasta(&src);
    ref = ReferenceSet::FromFasta(ReadFasta(fasta));
  }
  const std::int64_t t1 = NowNs();
  {
    const ScopedSpan span(log, "setup.index_build", root.id());
    MapperConfig mcfg;
    mcfg.k = kK;
    mcfg.read_length = kReadLength;
    mcfg.error_threshold = kErrors;
    sys->mapper = std::make_unique<ReadMapper>(std::move(ref), mcfg);
  }
  const std::int64_t t2 = NowNs();
  {
    const ScopedSpan span(log, "setup.engine_load", root.id());
    sys->devices = gpusim::MakeSetup1(1);
    std::vector<gpusim::Device*> ptrs;
    for (const auto& d : sys->devices) ptrs.push_back(d.get());
    EngineConfig ecfg;
    ecfg.read_length = kReadLength;
    ecfg.error_threshold = kErrors;
    sys->engine = std::make_unique<GateKeeperGpuEngine>(ecfg, ptrs);
    sys->engine->LoadReference(sys->mapper->genome());
  }
  const std::int64_t t3 = NowNs();
  if (w.clients > 0) {
    const ScopedSpan span(log, "setup.serve_start", root.id());
    StartServer(sys.get(), socket_path);
  }
  t->fasta_s = static_cast<double>(t1 - t0) * 1e-9;
  t->index_s = static_cast<double>(t2 - t1) * 1e-9;
  t->engine_s = static_cast<double>(t3 - t2) * 1e-9;
  t->total_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return sys;
}

// ------------------------------------------------------------- passes --

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t sam_bytes = 0;
  std::uint64_t failed_reads = 0;  // skipped, or lost with a failed job
  std::vector<double> request_ms;  // served jobs
  std::string sam;                 // kept output (capture only)
  std::vector<std::string> errors;
  PairedStats paired;
};

/// Maps `fq1` (with mates `fq2` when paired) through the in-process
/// streaming entry point, header included — what `gkgpu pipeline` and
/// `gkgpu map --paired --streaming` do with a file.
PassResult MapStreams(System& sys, const Workload& w, std::string_view fq1,
                      std::string_view fq2, std::uint64_t reads, bool capture) {
  PassResult r;
  ViewInput src1(fq1);
  ViewInput src2(fq2);
  std::istream fastq1(&src1);
  std::istream fastq2(&src2);
  SamSink sink(capture ? &r.sam : nullptr);
  std::ostream sam(&sink);
  const std::int64_t t0 = NowNs();
  WriteSamHeader(sam, sys.mapper->reference());
  std::uint64_t mapped_in = 0;
  std::uint64_t skipped = 0;
  if (w.paired) {
    PairedFastqReader reader(fastq1, fastq2);
    r.paired = StreamPairedFastqToSam(reader, *sys.mapper, sys.engine.get(),
                                      PairedConfig{},
                                      pipeline::PipelineConfig{}, &sam);
    mapped_in = 2 * r.paired.pairs;
    skipped = 2 * r.paired.skipped_pairs;
  } else {
    const pipeline::ReadToSamStats stats =
        pipeline::StreamFastqToSam(fastq1, *sys.mapper, sys.engine.get(),
                                   pipeline::ReadToSamConfig{}, &sam);
    mapped_in = stats.reads;
    skipped = stats.skipped_reads;
  }
  r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  r.sam_bytes = sink.bytes();
  r.failed_reads = skipped + (reads - std::min(reads, mapped_in));
  return r;
}

/// One pass of the served workload: each client thread submits its share
/// of the request slices as jobs, one after another (a closed loop), and
/// times each reply.
PassResult RunServed(const Workload& w, const Inputs& in,
                     const std::string& socket_path, bool capture, SpanLog* log,
                     int parent) {
  PassResult r;
  const std::size_t njobs = in.requests.size();
  std::vector<std::string> outputs(capture ? njobs : 0);
  std::vector<PassResult> per_client(static_cast<std::size_t>(w.clients));
  const std::int64_t t0 = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      PassResult& mine = per_client[static_cast<std::size_t>(c)];
      for (std::size_t j = static_cast<std::size_t>(c); j < njobs;
           j += static_cast<std::size_t>(w.clients)) {
        const Slice& job = in.requests[j];
        ViewInput src(in.R1(job));
        std::istream fastq(&src);
        SamSink sink(capture ? &outputs[j] : nullptr);
        std::ostream sam(&sink);
        const std::int64_t start = NowNs();
        try {
          const ScopedSpan span(log, "job", parent,
                                static_cast<std::int64_t>(j), c + 1);
          const serve::ClientStats stats =
              serve::MapOverSocket(socket_path, fastq, sam);
          mine.failed_reads += job.reads - std::min(job.reads, stats.reads);
        } catch (const std::exception& ex) {
          mine.failed_reads += job.reads;
          mine.errors.push_back(std::string("job failed: ") + ex.what());
          continue;
        }
        mine.request_ms.push_back(static_cast<double>(NowNs() - start) *
                                  1e-6);
        mine.sam_bytes += sink.bytes();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  for (PassResult& p : per_client) {
    r.sam_bytes += p.sam_bytes;
    r.failed_reads += p.failed_reads;
    r.request_ms.insert(r.request_ms.end(), p.request_ms.begin(),
                        p.request_ms.end());
    r.errors.insert(r.errors.end(), p.errors.begin(), p.errors.end());
  }
  for (const std::string& out : outputs) r.sam += out;
  return r;
}

// ------------------------------------------------------- correctness --

struct Accuracy {
  std::uint64_t mapped = 0;   // reads with a primary record
  std::uint64_t correct = 0;  // ... on the true chromosome, strand, +-e bp
};

/// Scores the primary records of `sam` against the simulation's truth.
Accuracy Score(std::string_view sam, const Inputs& in, bool paired,
               std::vector<std::string>* errors) {
  Accuracy acc;
  std::vector<std::uint8_t> seen(in.truth.size(), 0);
  std::size_t pos = 0;
  while (pos < sam.size()) {
    std::size_t eol = sam.find('\n', pos);
    if (eol == std::string_view::npos) eol = sam.size();
    const std::string_view line = sam.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '@') continue;
    // QNAME, FLAG, RNAME, POS.
    std::string_view field[4];
    std::string_view rest = line;
    for (std::string_view& f : field) {
      const std::size_t tab = std::min(rest.find('\t'), rest.size());
      f = rest.substr(0, tab);
      rest.remove_prefix(std::min(tab + 1, rest.size()));
    }
    std::uint64_t id = 0;
    int flag = 0;
    std::int64_t sam_pos = 0;
    const auto parse_ok = [](std::string_view s, auto* v) {
      const char* end = s.data() + s.size();
      return !s.empty() && std::from_chars(s.data(), end, *v).ptr == end;
    };
    // QNAME is a one-letter prefix, the read id, then an optional "/1".
    const std::string_view digits =
        field[0].substr(std::min<std::size_t>(1, field[0].size()),
                        field[0].find('/') - 1);
    if (!parse_ok(digits, &id) || !parse_ok(field[1], &flag) ||
        !parse_ok(field[3], &sam_pos)) {
      errors->push_back("malformed SAM line: " + std::string(line));
      continue;
    }
    if ((flag & (kSamUnmapped | kSamSecondary | 0x800)) != 0) continue;
    const std::uint64_t index =
        paired ? 2 * id + ((flag & kSamSecondInPair) != 0 ? 1 : 0) : id;
    if (index >= in.truth.size()) {
      errors->push_back("SAM record for unknown read " +
                        std::string(field[0]));
      continue;
    }
    if (seen[index] != 0) {
      errors->push_back("two primary records for " + std::string(field[0]));
      continue;
    }
    seen[index] = 1;
    ++acc.mapped;
    const Truth& t = in.truth[index];
    const bool reverse = (flag & kSamReverse) != 0;
    if (field[2] == in.chrom_names[t.chrom] && reverse == (t.strand != 0) &&
        std::abs(sam_pos - 1 - t.pos) <= kErrors) {
      ++acc.correct;
    }
  }
  return acc;
}

// ---------------------------------------------------------- registry --

/// Merged histogram of one {stage} series of a stage family; null if
/// absent.
const obs::HistogramSnapshot* StageHistogram(const obs::MetricsSnapshot& s,
                                             std::string_view family,
                                             std::string_view stage) {
  const obs::FamilySnapshot* f = s.Find(family);
  if (f == nullptr) return nullptr;
  for (const obs::SampleSnapshot& sample : f->samples) {
    if (sample.labels.size() == 1 && sample.labels[0].second == stage &&
        sample.histogram) {
      return &*sample.histogram;
    }
  }
  return nullptr;
}

struct StageDelta {
  double seconds = 0.0;
  double count = 0.0;
};

StageDelta StageChange(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after,
                       std::string_view family, std::string_view stage) {
  StageDelta d;
  const obs::HistogramSnapshot* a = StageHistogram(after, family, stage);
  if (a == nullptr) return d;
  d.seconds = a->sum;
  d.count = static_cast<double>(a->count);
  if (const obs::HistogramSnapshot* b = StageHistogram(before, family, stage)) {
    d.seconds -= b->sum;
    d.count -= static_cast<double>(b->count);
  }
  return d;
}

/// The filter funnel as the registry counts it.
struct Funnel {
  double seeded = 0.0;
  double pruned = 0.0;
  double input = 0.0;
  double accepts = 0.0;  // including bypasses
  double rejects = 0.0;
  double bypasses = 0.0;
};

Funnel FunnelChange(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after) {
  const auto d = [&](std::string_view name) {
    return after.Total(name) - before.Total(name);
  };
  Funnel f;
  f.seeded = d("gkgpu_candidates_seeded_total");
  f.pruned = d("gkgpu_candidates_pruned_total");
  f.input = d("gkgpu_filter_input_total");
  f.accepts = d("gkgpu_filter_accepts_total");
  f.rejects = d("gkgpu_filter_rejects_total");
  f.bypasses = d("gkgpu_filter_bypasses_total");
  return f;
}

// -------------------------------------------------- decomposed pass --

/// The single-threaded pass that calls each layer in turn over the same
/// reads, with a span around every call.
struct Decomposed {
  std::uint64_t reads = 0;
  std::uint64_t fastq_bytes = 0;
  std::uint64_t candidates = 0;
  std::uint64_t accepted = 0;  // filter verdict accept, bypasses excluded
  std::uint64_t bypassed = 0;
  std::uint64_t verified = 0;  // accepted + bypassed
  std::uint64_t hits = 0;      // verified within e
  std::uint64_t false_accepts = 0;
  double encode_s = 0.0;
  double sim_kernel_s = 0.0;
  double sim_transfer_s = 0.0;
  double wall_s = 0.0;
  double parse_s = 0.0;
  double seed_s = 0.0;
  double filter_s = 0.0;
  double verify_s = 0.0;
  double sam_s = 0.0;
  std::string sam;
};

Decomposed RunDecomposed(System& sys, const std::vector<std::string_view>& fqs,
                         SpanLog* log) {
  Decomposed d;
  const ReadMapper& mapper = *sys.mapper;
  const std::string_view text = mapper.genome();
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference());
  BandedVerifier verifier;
  std::vector<std::int64_t> seed_scratch;
  std::vector<OrientedCandidate> oriented;
  std::vector<FastqRecord> batch;
  std::vector<std::string> seqs;
  std::vector<std::string> names;
  std::vector<std::string> rcs;
  std::vector<CandidatePair> candidates;
  std::vector<PairResult> results;
  std::vector<MappingRecord> records;
  const ScopedSpan root(log, "decomposed", -1);
  const int parent = root.id();
  const std::int64_t t0 = NowNs();
  for (const std::string_view fq : fqs) {
    d.fastq_bytes += fq.size();
    ViewInput src(fq);
    std::istream in(&src);
    FastqStreamReader reader(in);
    for (;;) {
      {
        const ScopedSpan span(log, "FastqStreamReader::Next", parent);
        batch.resize(kDecomposedBatch);
        std::size_t n = 0;
        while (n < kDecomposedBatch && reader.Next(&batch[n])) ++n;
        batch.resize(n);
      }
      if (batch.empty()) break;
      d.reads += batch.size();
      seqs.resize(batch.size());
      names.resize(batch.size());
      rcs.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        seqs[i] = std::move(batch[i].seq);
        names[i] = std::move(batch[i].name);
      }
      candidates.clear();
      {
        const ScopedSpan span(log, "ReadMapper::CollectCandidatesOriented",
                              parent);
        for (std::size_t i = 0; i < seqs.size(); ++i) {
          mapper.CollectCandidatesOriented(seqs[i], &rcs[i], &seed_scratch,
                                           &oriented);
          for (const OrientedCandidate& oc : oriented) {
            candidates.push_back(
                {static_cast<std::uint32_t>(i), oc.strand, 0, oc.pos});
          }
        }
      }
      d.candidates += candidates.size();
      {
        const ScopedSpan span(log, "GateKeeperGpuEngine::FilterCandidates",
                              parent);
        const std::vector<std::string_view> views(seqs.begin(), seqs.end());
        const FilterRunStats fs =
            sys.engine->FilterCandidates(views, candidates, &results);
        d.encode_s += fs.host_encode_seconds;
        d.sim_kernel_s += fs.kernel_seconds;
        d.sim_transfer_s += fs.transfer_seconds;
      }
      records.clear();
      {
        const ScopedSpan span(log, "BandedVerifier::Distance", parent);
        for (std::size_t k = 0; k < candidates.size(); ++k) {
          if (results[k].accept == 0) continue;
          ++d.verified;
          const bool bypass = results[k].bypassed != 0;
          (bypass ? d.bypassed : d.accepted) += 1;
          const CandidatePair& c = candidates[k];
          const std::string& read =
              c.strand != 0 ? rcs[c.read_index] : seqs[c.read_index];
          const int dist = verifier.Distance(
              read,
              text.substr(static_cast<std::size_t>(c.ref_pos), kReadLength),
              kErrors);
          if (dist >= 0) {
            ++d.hits;
            records.push_back({c.read_index, c.ref_pos, dist, c.strand});
          } else if (!bypass) {
            ++d.false_accepts;
          }
        }
      }
      {
        const ScopedSpan span(log, "WriteSamRecordsMultiChrom", parent);
        WriteSamRecordsMultiChrom(sam, seqs, names, records,
                                  mapper.reference());
      }
    }
  }
  d.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  d.parse_s = log->ChildSeconds(parent, "FastqStreamReader::Next");
  d.seed_s = log->ChildSeconds(parent, "ReadMapper::CollectCandidatesOriented");
  d.filter_s =
      log->ChildSeconds(parent, "GateKeeperGpuEngine::FilterCandidates");
  d.verify_s = log->ChildSeconds(parent, "BandedVerifier::Distance");
  d.sam_s = log->ChildSeconds(parent, "WriteSamRecordsMultiChrom");
  d.sam = sam.str();
  return d;
}

// ------------------------------------------------------------ output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that round-trips: the value with all its digits.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  // Temporary files (daemon socket, index file) go beside the executable, in
  // the build tree, named as the executable was invoked: run.sh's relative
  // path keeps the socket path short (sun_path holds only 108 bytes).
  std::filesystem::path work_dir = ".";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;  // empty = untraced
  bool smoke = false;
};

int Usage() {
  std::fputs(
      "usage: gkgpu_e2e --workload se-large|se-repeat|pe-insert|serve-2c\n"
      "                 --seed S [--seconds N] [--trace DIR] [--smoke]\n",
      stderr);
  return 2;
}

int Run(const Options& opt) {
  const Workload* w = nullptr;
  for (const Workload& cand : opt.smoke ? kSmokeWorkloads : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return Usage();
  const bool trace = !opt.trace_dir.empty();
  const bool served = w->clients > 0;
  std::vector<std::string> errors;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  SpanLog span_log;
  SpanLog* log = trace ? &span_log : nullptr;
  const std::filesystem::path& work = opt.work_dir;
  const std::string stem = "e2e-" + std::to_string(::getpid());
  const std::string socket_path = (work / (stem + ".sock")).string();

  // 1. Inputs.
  const Inputs in = Generate(*w, opt.seed);

  // 2. Setup, repeated; the last system stays up.
  std::unique_ptr<System> sys;
  std::vector<SetupTimes> setups(kSetupReps);
  for (SetupTimes& t : setups) {
    sys.reset();
    sys = SetUp(*w, in, socket_path, log, &t);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };

  // `parent` is the traced pass's span; other passes record no spans.
  const auto run_pass = [&](bool capture, int parent) {
    if (served) {
      return RunServed(*w, in, socket_path, capture,
                       parent >= 0 ? log : nullptr, parent);
    }
    return MapStreams(*sys, *w, in.fastq, in.fastq2, in.reads, capture);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto absorb = [&](const PassResult& p, std::uint64_t reads) {
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    check(p.failed_reads == 0,
          std::to_string(p.failed_reads) + " reads skipped or failed");
    attempted += reads;
    failed += p.failed_reads;
  };
  const auto serve_stats = [&] {
    return served ? sys->server->stats() : serve::ServeStats{};
  };

  // 3. Warm-up: its SAM is the reference output.
  const obs::MetricsSnapshot warm_before = obs::Registry::Global().Snapshot();
  const PassResult warm = run_pass(true, -1);
  const Funnel warm_funnel =
      FunnelChange(warm_before, obs::Registry::Global().Snapshot());
  absorb(warm, in.reads);
  const Accuracy acc = Score(warm.sam, in, w->paired, &errors);
  // Peak RSS covers setup and one full pass, before the probe's buffer
  // exists.
  const double peak_rss_mb = PeakRssMiB();

  // 4. Timed passes, each preceded by the host probe; `scale` converts the
  // pass's times to baseline-host time (e2e_probe.hpp).
  const HostProbe probe;
  const std::size_t min_requests = opt.smoke ? kSmokeMinRequests : kMinRequests;
  std::vector<double> rates;
  std::vector<double> raw_rates;
  std::vector<double> scaled_walls;
  std::vector<double> scales;
  std::vector<double> request_ms;
  std::size_t next_request = 0;
  double cpu_scaled = 0.0;
  double elapsed = 0.0;
  while (rates.size() < kMinPasses || request_ms.size() < min_requests ||
         elapsed < opt.seconds) {
    const HostProbe::Reading host = probe.Measure();
    const double scale = host.speed;
    const double cpu0 = CpuSeconds();
    PassResult p = run_pass(false, -1);
    cpu_scaled += (CpuSeconds() - cpu0) * scale;
    if (p.sam_bytes != warm.sam_bytes) {
      errors.push_back("a timed pass wrote other SAM bytes than the warm-up");
      p.failed_reads = in.reads;
    }
    absorb(p, in.reads);
    elapsed += host.seconds + p.wall_s;
    scales.push_back(scale);
    scaled_walls.push_back(p.wall_s * scale);
    rates.push_back(static_cast<double>(in.reads) / (p.wall_s * scale));
    raw_rates.push_back(static_cast<double>(in.reads) / p.wall_s);
    for (const double ms : p.request_ms) request_ms.push_back(ms * scale);
    // Served passes are made of requests; the in-process entry points get
    // single requests of their own, one at a time.
    for (std::size_t k = 0; !served && k < kRequestsPerPass; ++k) {
      const Slice& q = in.requests[next_request++ % in.requests.size()];
      PassResult r = MapStreams(*sys, *w, in.R1(q), in.R2(q), q.reads, false);
      absorb(r, q.reads);
      elapsed += r.wall_s;
      request_ms.push_back(r.wall_s * 1e3 * scale);
    }
  }
  const double timed_reads =
      static_cast<double>(in.reads) * static_cast<double>(rates.size());

  const std::vector<Metric> e2e = {
      {"reads_per_s", Quantile(rates, 0.5), "reads/s"},
      {"req_p50_ms", Quantile(request_ms, 0.50), "ms"},
      {"req_p95_ms", Quantile(request_ms, 0.95), "ms"},
      {"cpu_s_per_mread", cpu_scaled / timed_reads * 1e6, "s/Mread"},
      {"setup_s", median_of(&SetupTimes::total_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"mapped_pct", 100.0 * Ratio(acc.mapped, in.reads), "%"},
      {"correct_pct", 100.0 * Ratio(acc.correct, in.reads), "%"},
  };
  const std::vector<Metric> info = {
      {"timed_passes", static_cast<double>(rates.size()), "count"},
      {"timed_s", elapsed, "s"},
      {"requests", static_cast<double>(request_ms.size()), "count"},
      {"host_speed", Quantile(scales, 0.5), "ratio"},
      {"reads_per_s_unscaled", Quantile(raw_rates, 0.5), "reads/s"},
      {"reads_per_pass", static_cast<double>(in.reads), "reads"},
      {"sam_bytes_per_pass", static_cast<double>(warm.sam_bytes), "bytes"},
      {"candidates_per_pass", warm_funnel.input, "count"},
  };

  // 5. Traced run: per-layer numbers.
  std::vector<Metric> layers;
  if (trace) {
    // The traced pass follows the timed ones with only the probe between,
    // as each timed pass does: the daemon's source stage times its wait for
    // reads, so a longer gap would count as busy time.
    const double traced_scale = probe.Measure().speed;
    const serve::ServeStats serve_before = serve_stats();
    const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
    const std::int64_t epoch = NowNs();
    obs::StartTracing();
    PassResult traced;
    {
      const ScopedSpan span(log, "pass", -1);
      traced = run_pass(false, span.id());
    }
    const std::string program_trace = obs::StopTracing();
    const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
    const serve::ServeStats serve_after = serve_stats();
    absorb(traced, in.reads);
    check(traced.sam_bytes == warm.sam_bytes,
          "traced pass SAM bytes differ from the warm-up");

    std::vector<std::string_view> fqs = {in.fastq};
    if (w->paired) fqs.push_back(in.fastq2);
    const obs::MetricsSnapshot decomp_before =
        obs::Registry::Global().Snapshot();
    const Decomposed d = RunDecomposed(*sys, fqs, log);
    const Funnel decomp_funnel =
        FunnelChange(decomp_before, obs::Registry::Global().Snapshot());

    const std::string index_path = (work / (stem + ".gki")).string();
    BuildAndWriteIndexFile(index_path, sys->mapper->reference(), kK);
    double mmap_s = 0.0;
    {
      const ScopedSpan span(log, "MappedIndexFile::Open", -1);
      const std::int64_t t0 = NowNs();
      const MappedIndexFile mapped = MappedIndexFile::Open(index_path);
      mmap_s = static_cast<double>(NowNs() - t0) * 1e-9;
      check(mapped.reference_fingerprint() ==
                sys->mapper->reference().fingerprint(),
            "mmap'd index fingerprint differs from the built reference");
    }
    std::filesystem::remove(index_path);

    // The decomposed pass must reproduce the end-to-end funnel, and on the
    // paired path the registry must agree with PairedStats.
    const auto same = [&](double registry, std::uint64_t count,
                          const std::string& what) {
      check(registry == static_cast<double>(count), "funnel differs: " + what);
    };
    same(decomp_funnel.input, d.candidates, "decomposed filter input");
    if (!w->paired) {
      same(warm_funnel.input, d.candidates, "candidates");
      same(warm_funnel.accepts, d.verified, "accepts");
      same(warm_funnel.rejects, d.candidates - d.verified, "rejects");
      same(warm_funnel.bypasses, d.bypassed, "bypasses");
      if (!served) {
        same(warm_funnel.seeded, d.candidates, "seeded");
        check(d.sam == warm.sam, "decomposed SAM differs from end-to-end SAM");
      }
    } else {
      const PairedStats& ps = warm.paired;
      const std::uint64_t pruned = ps.candidates_seeded - ps.candidates_paired;
      same(warm_funnel.seeded, ps.candidates_seeded, "paired seeded");
      same(warm_funnel.pruned, pruned, "paired pruned");
      same(warm_funnel.rejects, ps.rejected_pairs, "paired rejects");
    }

    const auto add = [&](std::string name, double value, const char* unit) {
      layers.push_back({std::move(name), value, unit});
    };
    const auto pct = [](double part, double whole) {
      return 100.0 * Ratio(part, whole);
    };
    const double reads = static_cast<double>(d.reads);
    const double cands = static_cast<double>(d.candidates);
    add("io.fastq_parse_s", d.parse_s, "s");
    add("io.fastq_mb_per_s", Ratio(d.fastq_bytes * 1e-6, d.parse_s), "MB/s");
    add("setup.fasta_parse_s", median_of(&SetupTimes::fasta_s), "s");
    add("setup.index_build_s", median_of(&SetupTimes::index_s), "s");
    add("setup.engine_load_s", median_of(&SetupTimes::engine_s), "s");
    add("setup.index_mmap_s", mmap_s, "s");
    add("seed.busy_s", d.seed_s, "s");
    add("seed.ns_per_read", Ratio(d.seed_s * 1e9, reads), "ns");
    add("seed.candidates_per_read", Ratio(cands, reads), "count");
    add("filter.busy_s", d.filter_s, "s");
    add("filter.mpairs_per_s", Ratio(cands * 1e-6, d.filter_s), "Mpairs/s");
    add("filter.encode_s", d.encode_s, "s");
    add("filter.accept_pct", pct(d.accepted, cands), "%");
    add("filter.bypass_pct", pct(d.bypassed, cands), "%");
    add("filter.false_accept_pct", pct(d.false_accepts, d.accepted), "%");
    add("sim.kernel_s", d.sim_kernel_s, "s");
    add("sim.transfer_s", d.sim_transfer_s, "s");
    add("verify.busy_s", d.verify_s, "s");
    add("verify.us_per_pair", Ratio(d.verify_s * 1e6, d.verified), "us");
    add("verify.pairs_per_read", Ratio(d.verified, reads), "count");
    add("verify.hit_pct", pct(d.hits, d.verified), "%");
    add("sam.busy_s", d.sam_s, "s");
    add("sam.mb", static_cast<double>(warm.sam_bytes) * 1e-6, "MB");

    const PairedStats& paired = traced.paired;
    const double earlyouts = static_cast<double>(paired.earlyout_lanes);
    const double rescues = static_cast<double>(paired.rescue_invocations);
    const double skips = static_cast<double>(paired.rescue_gate_skips);
    add("pair.prune_ratio", paired.PruningRatio(), "ratio");
    add("pair.earlyout_lanes", earlyouts, "count");
    add("rescue.invocations", rescues, "count");
    add("rescue.success_pct", pct(paired.rescued_mates, rescues), "%");
    add("rescue.gate_skips", skips, "count");

    const double wall = traced.wall_s;
    const auto delta = [&](const char* family, const std::string& stage) {
      return StageChange(before, after, family, stage);
    };
    const auto add_stage = [&](const std::string& name, int workers) {
      const std::string prefix = "pipeline." + name;
      const double busy = delta("gkgpu_stage_service_seconds", name).seconds;
      add(prefix + ".busy_s", busy, "s");
      add(prefix + ".util", Ratio(busy, workers * wall), "ratio");
      if (name == "source") return;  // the source pops no queue
      const double wait = delta("gkgpu_stage_queue_wait_seconds", name).seconds;
      add(prefix + ".wait_s", wait, "s");
    };
    // The daemon's `threads=4` splits into the same 2 + 2 workers.
    const pipeline::PipelineConfig defaults;
    add_stage("source", 1);
    add_stage("encode", defaults.encode_workers);
    add_stage("filter", 1);
    add_stage("verify", defaults.verify_workers);
    add_stage("sink", 1);

    const double batches = delta("gkgpu_stage_service_seconds", "filter").count;
    const double filtered = FunnelChange(before, after).input;
    const double served_batches =
        static_cast<double>(serve_after.batches - serve_before.batches);
    const double coalesced = static_cast<double>(
        serve_after.coalesced_batches - serve_before.coalesced_batches);
    const double failed_sessions = static_cast<double>(
        serve_after.sessions_failed - serve_before.sessions_failed);
    const double timed_wall = Quantile(scaled_walls, 0.5);
    const double traced_wall = wall * traced_scale;
    const double layer_s =
        d.parse_s + d.seed_s + d.filter_s + d.verify_s + d.sam_s;
    add("pipeline.batches", batches, "count");
    add("pipeline.mean_batch", Ratio(filtered, batches), "pairs");
    add("pipeline.reads_per_batch", Ratio(in.reads, batches), "reads");
    add("serve.coalesced_pct", pct(coalesced, served_batches), "%");
    add("serve.sessions_failed", failed_sessions, "count");
    add("trace.overhead_pct", pct(traced_wall - timed_wall, timed_wall), "%");
    add("trace.unattributed_pct", pct(d.wall_s - layer_s, d.wall_s), "%");
    check(failed_sessions == 0, "daemon sessions failed");

    std::filesystem::create_directories(opt.trace_dir);
    const std::string path =
        opt.trace_dir + "/trace_" + std::string(w->name) + ".json";
    // Splice our spans into the program's traceEvents array.
    std::string merged = program_trace;
    const std::size_t open = merged.find('[');
    if (open != std::string::npos) {
      std::string ours = span_log.RenderEvents(epoch, ::getpid());
      if (merged.compare(open + 1, 2, "\n]") != 0) ours += ",";
      merged.insert(open + 1, ours);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << merged;
    check(static_cast<bool>(out), "cannot write " + path);
  }
  sys.reset();
  std::filesystem::remove(socket_path);

  for (const std::string& e : errors) {
    std::fprintf(stderr, "gkgpu_e2e %s: check failed: %s\n", w->name,
                 e.c_str());
  }
  if (!errors.empty() && failed == 0) failed = in.reads;
  const auto print = [&](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("%s %s %s %s\n", w->name, m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str());
    }
  };
  print(e2e);
  print(info);
  print(layers);
  const std::vector<Metric>& reported = trace ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (const Metric& m : reported) {
    if (&m != &reported.front()) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value);
    json += ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace gkgpu::e2e

int main(int argc, char** argv) {
  gkgpu::e2e::Options opt;
  if (argc > 0 && !std::filesystem::path(argv[0]).parent_path().empty()) {
    opt.work_dir = std::filesystem::path(argv[0]).parent_path();
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace_dir = argv[++i];
    } else {
      return gkgpu::e2e::Usage();
    }
  }
  try {
    return gkgpu::e2e::Run(opt);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "gkgpu_e2e: %s\n", ex.what());
    return 1;
  }
}
