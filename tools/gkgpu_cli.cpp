// gkgpu — command-line front end for the GateKeeper-GPU library.
//
//   gkgpu generate-genome --length 1000000 --out ref.fa [--seed 42]
//   gkgpu generate-reads  --ref ref.fa --count 10000 --length 100 --out r.fq
//   gkgpu generate-pairs  --profile mrfast --length 100 --count 30000
//                         --out set.pairs.tsv
//   gkgpu filter --pairs set.pairs.tsv --e 5
//                [--algo gkgpu|fpga|shd|magnet|shouji|sneakysnake|genasm]
//                [--setup 1|2] [--devices N] [--encode host|device]
//                [--out decisions.tsv]
//   gkgpu map    --ref ref.fa --reads r.fq --e 5 [--no-filter]
//                [--sam out.sam]
//   gkgpu pipeline --reads r.fq --ref ref.fa --e 5 [--sam out.sam]
//                  [--threads N]
//   gkgpu index  --ref ref.fa --out ref.gki [--k 12] [--verify]
//   gkgpu serve  --index ref.gki --socket /tmp/gk.sock [--threads N]
//   gkgpu map-client --socket /tmp/gk.sock --reads r.fq [--sam out.sam]
//   gkgpu stats  --socket /tmp/gk.sock
//
// `filter --algo gkgpu` runs the full engine (simulated GPU, batching,
// unified memory); the other algorithms run as host filters.  `map` runs
// the mrFAST-like mapper with GateKeeper-GPU pre-alignment filtering and
// reports the Table-3 statistics (single-end `map` on the simulated
// devices; `map --paired` filters on the host).  `pipeline` streams
// single-end FASTQ: chunk workers on the mapper's pool each seed, encode,
// filter on the host, verify and format a chunk of reads, and the SAM is
// written in input order.  Every command rejects options it does not take
// (exit 2).
// `index` persists the reference + k-mer index + 2-bit encoding to one
// mmap-able file; `serve` is the resident mapping daemon and
// `map-client` submits jobs to it.  Reference-consuming commands accept
// `--index FILE` in place of `--ref FASTA` to start instantly.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/genasm.hpp"
#include "filters/magnet.hpp"
#include "filters/shd.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/index_io.hpp"
#include "io/paired_fastq.hpp"
#include "io/pairset.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "paired/paired.hpp"
#include "pipeline/read_to_sam.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "sim/genome.hpp"
#include "sim/pairgen.hpp"
#include "sim/read_sim.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace gkgpu;

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = {key.substr(eq + 1)};
        continue;
      }
      // Consume every following non-flag token, so multi-operand options
      // like `--paired r1.fq r2.fq` work; absent operands mean a boolean.
      std::vector<std::string> operands;
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        operands.emplace_back(argv[++i]);
      }
      if (operands.empty()) operands.emplace_back("1");
      values_[key] = std::move(operands);
    }
  }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second.front() : fallback;
  }
  /// All operands of a multi-value option (empty when absent).
  std::vector<std::string> GetList(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : std::vector<std::string>{};
  }
  long GetInt(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::atol(it->second.front().c_str())
                               : fallback;
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  /// The first option given that `allowed`, a space-separated list of
  /// option names, lacks ("" = none).
  std::string Unknown(std::string_view allowed) const {
    const std::string words = " " + std::string(allowed) + " ";
    for (const auto& [key, operands] : values_) {
      if (words.find(" " + key + " ") == std::string::npos) return key;
    }
    return {};
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// The simulated device set: paper Setup 1 (GTX 1080 Ti) or 2 (K20X).
struct DeviceSet {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::vector<gpusim::Device*> ptrs;
};

DeviceSet MakeDeviceSet(int setup, int ndev) {
  DeviceSet set;
  set.devices =
      setup == 1 ? gpusim::MakeSetup1(ndev) : gpusim::MakeSetup2(ndev);
  for (auto& d : set.devices) set.ptrs.push_back(d.get());
  return set;
}

/// The engine device of `pipeline`, `serve` and `map --paired`: those
/// drivers filter on the host, so their engine's one Setup-1 device only
/// holds the loaded reference.
DeviceSet ReferenceDeviceSet() { return MakeDeviceSet(1, 1); }

EncodingActor ParseEncodingActor(const Args& args) {
  return args.Get("encode", "host") == "device" ? EncodingActor::kDevice
                                                : EncodingActor::kHost;
}

/// The shared load-or-mmap entry point: every subcommand that needs a
/// reference resolves it here, so `--index ref.gki` (instant mmap of the
/// persisted reference + CSR index + 2-bit encoding) and `--ref ref.fa`
/// (parse FASTA, build everything) behave identically downstream and no
/// command path re-parses or re-encodes on its own.
struct ReferenceInput {
  std::unique_ptr<MappedIndexFile> mapped;  // set iff --index
  ReferenceSet owned;                       // set iff --ref

  bool FromIndex() const { return mapped != nullptr; }
  const ReferenceSet& reference() const {
    return mapped != nullptr ? mapped->reference() : owned;
  }
  /// A ReferenceSet the caller may move into a mapper.  For mapped input
  /// this is a view copy aliasing the mapping (the ReferenceInput must
  /// outlive the mapper); for FASTA input the owned set moves out.
  ReferenceSet TakeReference() {
    return mapped != nullptr ? mapped->reference() : std::move(owned);
  }
  /// Builds the mapper without re-deriving anything that is already on
  /// disk: mapped input reuses the persisted per-shard CSR indexes (and
  /// forces `k` to the index's, which is what the file was built with);
  /// FASTA input builds the sharded index from the text.
  ReadMapper MakeMapper(MapperConfig mcfg) {
    if (mapped != nullptr) {
      mcfg.k = mapped->k();
      return ReadMapper(TakeReference(), mapped->seed_index().Alias(), mcfg);
    }
    return ReadMapper(TakeReference(), mcfg);
  }
  /// Loads the engine's reference: from the persisted 2-bit encoding when
  /// mapped (no host re-encode), from the mapper's genome view otherwise
  /// (`owned` may already have moved into the mapper).
  void LoadEngine(GateKeeperGpuEngine* engine,
                  const ReadMapper& mapper) const {
    if (mapped != nullptr) {
      engine->LoadReference(mapped->encoding(),
                            mapped->reference_fingerprint());
    } else {
      engine->LoadReference(mapper.genome());
    }
  }
};

/// Resolves `--index FILE` or `--ref FASTA` (exactly one; `*ok` is false
/// when neither or both are present).  Throws on open/validation failure.
ReferenceInput LoadReferenceInput(const Args& args, bool* ok) {
  ReferenceInput input;
  const std::string index_path = args.Get("index", "");
  const std::string ref_path = args.Get("ref", "");
  *ok = index_path.empty() != ref_path.empty();
  if (!*ok) return input;
  if (!index_path.empty()) {
    IndexLoadOptions options;
    options.verify_checksum = args.Has("verify");
    input.mapped = std::make_unique<MappedIndexFile>(
        MappedIndexFile::Open(index_path, options));
  } else {
    input.owned = ReferenceSet::FromFastaFile(ref_path);
  }
  return input;
}

/// Applies the seeding flags (--seed dense|minimizer, --minimizer-w,
/// --shard-max-bp) to a mapper config.  When the reference comes from an
/// index file the persisted mode always wins (it is baked into the CSR
/// payload); an explicitly conflicting --seed is an error rather than a
/// silent override.  Returns false (after diagnosing) on bad flags.
bool ApplySeedFlags(const Args& args, const MappedIndexFile* mapped,
                    MapperConfig* mcfg) {
  if (args.Has("seed")) {
    const std::string name = args.Get("seed", "dense");
    const auto mode = ParseSeedMode(name);
    if (!mode) {
      std::fprintf(stderr, "unknown --seed mode '%s' (dense|minimizer)\n",
                   name.c_str());
      return false;
    }
    if (mapped != nullptr && *mode != mapped->seed_mode()) {
      std::fprintf(stderr,
                   "--seed %s conflicts with the index file's persisted %s "
                   "seeding; rebuild the index or drop the flag\n",
                   name.c_str(), SeedModeName(mapped->seed_mode()));
      return false;
    }
    mcfg->seed_mode = *mode;
  }
  mcfg->minimizer_w =
      static_cast<int>(args.GetInt("minimizer-w", mcfg->minimizer_w));
  mcfg->shard_max_bp = args.GetInt("shard-max-bp", mcfg->shard_max_bp);
  return true;
}

/// `--threads N`: the mapper's pool size (0 = hardware concurrency), on
/// which every mapping driver runs.
unsigned PoolThreads(const Args& args) {
  const long threads = args.GetInt("threads", 0);
  return threads > 0 ? static_cast<unsigned>(threads) : 0;
}

/// The end-of-run observability tables: the filter funnel (with the
/// per-filter/tier accept split) and stage latency percentiles, all read
/// from one registry snapshot — the same numbers `gkgpu stats` and
/// --metrics-json expose.
void PrintObsTables(const obs::MetricsSnapshot& snap) {
  const auto total = [&](const char* name) {
    return static_cast<unsigned long long>(snap.Total(name));
  };
  const unsigned long long seeded = total("gkgpu_candidates_seeded_total");
  const unsigned long long input = total("gkgpu_filter_input_total");
  if (seeded == 0 && input == 0) return;

  std::printf("\nfilter funnel:\n");
  TablePrinter funnel({"metric", "value"});
  funnel.AddRow(
      {"seed-vote cut",
       TablePrinter::Count(total("gkgpu_candidates_voted_out_total"))});
  funnel.AddRow({"candidates seeded", TablePrinter::Count(seeded)});
  funnel.AddRow({"insert-window pruned",
                 TablePrinter::Count(total("gkgpu_candidates_pruned_total"))});
  funnel.AddRow({"filter input", TablePrinter::Count(input)});
  funnel.AddRow({"filter accepts",
                 TablePrinter::Count(total("gkgpu_filter_accepts_total"))});
  funnel.AddRow({"filter rejects",
                 TablePrinter::Count(total("gkgpu_filter_rejects_total"))});
  funnel.AddRow({"filter bypasses",
                 TablePrinter::Count(total("gkgpu_filter_bypasses_total"))});
  funnel.AddRow({"SW rescued mates",
                 TablePrinter::Count(total("gkgpu_rescued_mates_total"))});
  funnel.AddRow({"reads mapped",
                 TablePrinter::Count(total("gkgpu_reads_mapped_total"))});
  funnel.AddRow({"reads unmapped",
                 TablePrinter::Count(total("gkgpu_reads_unmapped_total"))});
  funnel.Print(std::cout);

  const obs::FamilySnapshot* accepts =
      snap.Find("gkgpu_filter_accepts_total");
  if (accepts != nullptr && !accepts->samples.empty()) {
    std::printf("\nper-filter accepts:\n");
    TablePrinter per({"filter", "tier", "accepts", "rejects", "bypasses"});
    for (const auto& s : accepts->samples) {
      per.AddRow({s.labels.size() > 0 ? s.labels[0].second : "?",
                  s.labels.size() > 1 ? s.labels[1].second : "?",
                  TablePrinter::Count(
                      static_cast<unsigned long long>(s.value)),
                  TablePrinter::Count(static_cast<unsigned long long>(
                      snap.Value("gkgpu_filter_rejects_total", s.labels))),
                  TablePrinter::Count(static_cast<unsigned long long>(
                      snap.Value("gkgpu_filter_bypasses_total", s.labels)))});
    }
    per.Print(std::cout);
  }

  const obs::FamilySnapshot* service =
      snap.Find("gkgpu_stage_service_seconds");
  if (service != nullptr && !service->samples.empty()) {
    std::printf("\nstage latency (s):\n");
    TablePrinter lat({"stage", "chunks", "p50", "p95", "p99", "mean"});
    for (const auto& s : service->samples) {
      if (!s.histogram || s.histogram->count == 0) continue;
      const obs::HistogramSnapshot& h = *s.histogram;
      lat.AddRow({s.labels.empty() ? "?" : s.labels[0].second,
                  TablePrinter::Count(h.count),
                  TablePrinter::Num(h.Quantile(0.50), 6),
                  TablePrinter::Num(h.Quantile(0.95), 6),
                  TablePrinter::Num(h.Quantile(0.99), 6),
                  TablePrinter::Num(h.mean(), 6)});
    }
    lat.Print(std::cout);
  }
}

/// Shared observability tail for `map` and `pipeline`: arms the tracer
/// when --trace-json is given, and at scope exit (any return path) prints
/// the funnel/latency tables, dumps --metrics-json, and flushes the
/// trace file.
class ObsRun {
 public:
  explicit ObsRun(const Args& args)
      : metrics_json_(args.Get("metrics-json", "")),
        trace_json_(args.Get("trace-json", "")) {
    if (!trace_json_.empty()) obs::StartTracing();
  }
  ~ObsRun() {
    const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    PrintObsTables(snap);
    if (!metrics_json_.empty()) {
      std::ofstream os(metrics_json_);
      os << snap.RenderJson();
      std::printf("metrics written to %s\n", metrics_json_.c_str());
    }
    if (!trace_json_.empty()) {
      obs::StopTracingToFile(trace_json_);
      std::printf("trace written to %s (chrome://tracing or Perfetto)\n",
                  trace_json_.c_str());
    }
  }

 private:
  std::string metrics_json_;
  std::string trace_json_;
};

int Usage() {
  std::fputs(
      "usage: gkgpu <command> [options]\n"
      "  generate-genome --length N --out FILE [--seed S]\n"
      "                  [--chromosomes N]\n"
      "  generate-reads  --ref FASTA --count N --length L --out FILE\n"
      "                  [--profile illumina|richdel|lowindel] [--seed S]\n"
      "  generate-paired-reads --ref FASTA --count N --length L\n"
      "                  --out1 R1.fq --out2 R2.fq [--interleaved FILE]\n"
      "                  [--insert-mean N] [--insert-sd N]\n"
      "                  [--profile illumina|richdel|lowindel] [--seed S]\n"
      "  generate-pairs  --profile mrfast|lowedit|highedit|minimap2|bwamem\n"
      "                  --length L --count N --out FILE [--seed S]\n"
      "  filter          --pairs FILE --e N [--algo NAME] [--setup 1|2]\n"
      "                  [--devices N] [--encode host|device] [--out FILE]\n"
      "  map             (--ref FASTA | --index FILE) --e N [--sam FILE]\n"
      "                  [--read-group ID] [--mapq-cap N] [--threads N]\n"
      "                  [--seed dense|minimizer] [--minimizer-w W]\n"
      "                  [--shard-max-bp N] and one of:\n"
      "                    --reads FASTQ [--no-filter] [--report-secondary]\n"
      "                      [--setup 1|2] [--devices N]\n"
      "                    --paired R1.fq R2.fq | --interleaved FILE\n"
      "                      [--max-insert N] [--no-filter] [--length N]\n"
      "                      [--no-rescue] [--mark-duplicates]\n"
      "                      [--optical-dup-distance N]\n"
      "  pipeline        --reads FASTQ (--ref FASTA | --index FILE) --e N\n"
      "                  [--sam FILE] [--threads N] [--length N]\n"
      "                  [--read-group ID] [--mapq-cap N]\n"
      "                  [--report-secondary] [--seed dense|minimizer]\n"
      "                  [--minimizer-w W] [--shard-max-bp N]\n"
      "  index           --ref FASTA [--out FILE] [--k N] [--verify]\n"
      "                  [--seed dense|minimizer] [--minimizer-w W]\n"
      "                  [--shard-max-bp N]\n"
      "  serve           (--ref FASTA | --index FILE) --socket PATH\n"
      "                  [--length N] [--e N] [--threads N] [--timeout SEC]\n"
      "                  [--linger MS] [--read-group ID]\n"
      "                  [--mapq-cap N] [--seed dense|minimizer]\n"
      "                  [--minimizer-w W] [--shard-max-bp N]\n"
      "  map-client      --socket PATH --reads FASTQ [--sam FILE]\n"
      "                  [--read-group ID] [--mapq-cap N]\n"
      "                  [--report-secondary]\n"
      "  stats           --socket PATH   (Prometheus scrape of a daemon)\n"
      "  (map and pipeline accept --metrics-json FILE for the registry\n"
      "   snapshot and --trace-json FILE for a chrome://tracing timeline)\n"
      "  (FASTA references may be multi-chromosome; SAM output carries one\n"
      "   @SQ line per chromosome)\n",
      stderr);
  return 2;
}

int GenerateGenomeCmd(const Args& args) {
  const auto length = static_cast<std::size_t>(args.GetInt("length", 1000000));
  const std::string out = args.Get("out", "reference.fa");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const auto chromosomes =
      static_cast<std::size_t>(args.GetInt("chromosomes", 1));
  if (chromosomes < 1 || chromosomes > length) {
    std::fprintf(stderr, "generate-genome: --chromosomes must be in [1, "
                         "--length]\n");
    return 2;
  }
  // --chromosomes N splits the length into N independently generated
  // sequences (distinct RNG streams), the multi-chromosome shape the
  // sharded-index smoke tests need.
  std::vector<FastaRecord> records;
  records.reserve(chromosomes);
  const std::size_t per = length / chromosomes;
  for (std::size_t c = 0; c < chromosomes; ++c) {
    const std::size_t chrom_len =
        c + 1 == chromosomes ? length - per * (chromosomes - 1) : per;
    records.push_back(
        {"synthetic_chr" + std::to_string(c + 1) +
             " length=" + std::to_string(chrom_len),
         GenerateGenome(chrom_len, seed + c)});
  }
  WriteFastaFile(out, records);
  std::printf("wrote %s (%zu bp in %zu chromosome(s))\n", out.c_str(), length,
              chromosomes);
  return 0;
}

int GenerateReadsCmd(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) return Usage();
  const auto records = ReadFastaFile(ref_path);
  if (records.empty()) {
    std::fprintf(stderr, "no sequences in %s\n", ref_path.c_str());
    return 1;
  }
  const auto count = static_cast<std::size_t>(args.GetInt("count", 10000));
  const int length = static_cast<int>(args.GetInt("length", 100));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 43));
  const std::string profile_name = args.Get("profile", "illumina");
  ReadErrorProfile profile = ReadErrorProfile::Illumina();
  if (profile_name == "richdel") profile = ReadErrorProfile::RichDeletion();
  if (profile_name == "lowindel") profile = ReadErrorProfile::LowIndel();
  const auto reads =
      SimulateReads(records[0].seq, count, length, profile, seed);
  std::vector<FastqRecord> fq;
  fq.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    fq.push_back({"read_" + std::to_string(i) + "_origin_" +
                      std::to_string(reads[i].origin),
                  reads[i].seq, ""});
  }
  const std::string out = args.Get("out", "reads.fq");
  WriteFastqFile(out, fq);
  std::printf("wrote %s (%zu reads of %d bp)\n", out.c_str(), fq.size(),
              length);
  return 0;
}

int GeneratePairedReadsCmd(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) return Usage();
  const auto records = ReadFastaFile(ref_path);
  if (records.empty()) {
    std::fprintf(stderr, "no sequences in %s\n", ref_path.c_str());
    return 1;
  }
  const auto count = static_cast<std::size_t>(args.GetInt("count", 10000));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 45));
  PairSimConfig cfg;
  cfg.read_length = static_cast<int>(args.GetInt("length", 100));
  cfg.insert_mean = static_cast<double>(args.GetInt("insert-mean", 350));
  cfg.insert_sd = static_cast<double>(args.GetInt("insert-sd", 30));
  const std::string profile_name = args.Get("profile", "illumina");
  if (profile_name == "richdel") cfg.profile = ReadErrorProfile::RichDeletion();
  if (profile_name == "lowindel") cfg.profile = ReadErrorProfile::LowIndel();
  const auto pairs = SimulatePairs(records[0].seq, count, cfg, seed);

  std::vector<FastqRecord> fq1, fq2;
  fq1.reserve(pairs.size());
  fq2.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::string stem = "pair_" + std::to_string(i) + "_frag_" +
                             std::to_string(pairs[i].fragment_start) + "_" +
                             std::to_string(pairs[i].fragment_length);
    fq1.push_back({stem + "/1", pairs[i].seq1, ""});
    fq2.push_back({stem + "/2", pairs[i].seq2, ""});
  }
  const std::string interleaved = args.Get("interleaved", "");
  if (!interleaved.empty()) {
    std::vector<FastqRecord> both;
    both.reserve(2 * pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      both.push_back(fq1[i]);
      both.push_back(fq2[i]);
    }
    WriteFastqFile(interleaved, both);
    std::printf("wrote %s (%zu interleaved pairs of 2x%d bp)\n",
                interleaved.c_str(), pairs.size(), cfg.read_length);
    return 0;
  }
  const std::string out1 = args.Get("out1", "reads_1.fq");
  const std::string out2 = args.Get("out2", "reads_2.fq");
  WriteFastqFile(out1, fq1);
  WriteFastqFile(out2, fq2);
  std::printf("wrote %s + %s (%zu pairs of 2x%d bp, insert %.0f +/- %.0f)\n",
              out1.c_str(), out2.c_str(), pairs.size(), cfg.read_length,
              cfg.insert_mean, cfg.insert_sd);
  return 0;
}

int GeneratePairsCmd(const Args& args) {
  const int length = static_cast<int>(args.GetInt("length", 100));
  const auto count = static_cast<std::size_t>(args.GetInt("count", 30000));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 44));
  const std::string name = args.Get("profile", "mrfast");
  PairProfile profile;
  if (name == "mrfast") {
    profile = MrFastCandidateProfile(length);
  } else if (name == "lowedit") {
    profile = LowEditProfile(length);
  } else if (name == "highedit") {
    profile = HighEditProfile(length);
  } else if (name == "minimap2") {
    profile = Minimap2Profile(length);
  } else if (name == "bwamem") {
    profile = BwaMemProfile(length);
  } else {
    std::fprintf(stderr, "unknown pair profile '%s'\n", name.c_str());
    return 1;
  }
  const std::string out = args.Get("out", name + ".pairs.tsv");
  WritePairSetFile(out, GeneratePairs(count, profile, seed));
  std::printf("wrote %s (%zu pairs of %d bp, %s profile)\n", out.c_str(),
              count, length, name.c_str());
  return 0;
}

std::unique_ptr<PreAlignmentFilter> MakeHostFilter(const std::string& algo) {
  if (algo == "gkgpu") return std::make_unique<GateKeeperFilter>();
  if (algo == "fpga") {
    GateKeeperParams p;
    p.mode = GateKeeperMode::kOriginal;
    p.bypass_undefined = false;
    return std::make_unique<GateKeeperFilter>(p);
  }
  if (algo == "shd") return std::make_unique<ShdFilter>();
  if (algo == "magnet") return std::make_unique<MagnetFilter>();
  if (algo == "shouji") return std::make_unique<ShoujiFilter>();
  if (algo == "sneakysnake") return std::make_unique<SneakySnakeFilter>();
  if (algo == "genasm") return std::make_unique<GenAsmFilter>();
  return nullptr;
}

int FilterCmd(const Args& args) {
  const std::string pairs_path = args.Get("pairs", "");
  if (pairs_path.empty()) return Usage();
  const auto pairs = ReadPairSetFile(pairs_path);
  if (pairs.empty()) {
    std::fprintf(stderr, "no pairs in %s\n", pairs_path.c_str());
    return 1;
  }
  const int e = static_cast<int>(args.GetInt("e", 5));
  const int length = static_cast<int>(pairs.front().read.size());
  const std::string algo = args.Get("algo", "gkgpu");

  std::vector<std::uint8_t> accepts(pairs.size(), 0);
  std::uint64_t accepted = 0;
  double kt = -1.0;
  double ft = 0.0;
  if (algo == "gkgpu") {
    const int setup = static_cast<int>(args.GetInt("setup", 1));
    const int ndev = static_cast<int>(args.GetInt("devices", 1));
    const DeviceSet set = MakeDeviceSet(setup, ndev);
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    cfg.encoding = ParseEncodingActor(args);
    GateKeeperGpuEngine engine(cfg, set.ptrs);
    std::vector<std::string> reads;
    std::vector<std::string> refs;
    reads.reserve(pairs.size());
    refs.reserve(pairs.size());
    for (const auto& p : pairs) {
      reads.push_back(p.read);
      refs.push_back(p.ref);
    }
    std::vector<PairResult> results;
    const FilterRunStats stats = engine.FilterPairs(reads, refs, &results);
    for (std::size_t i = 0; i < results.size(); ++i) {
      accepts[i] = results[i].accept;
      accepted += results[i].accept;
    }
    kt = stats.kernel_seconds;
    ft = stats.filter_seconds;
  } else {
    const auto filter = MakeHostFilter(algo);
    if (filter == nullptr) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
      return 1;
    }
    // Host filters run the batch API: one PairBlock, no per-pair virtual
    // dispatch.  Undefined ('N') pairs carry bypass bits except for the
    // FPGA baseline, which has no such mechanism and filters the
    // 'A'-substituted encoding instead.
    WallTimer timer;
    PairBlockStorage block(length);
    for (const auto& p : pairs) {
      block.Add(p.read, p.ref, /*mark_undefined=*/algo != "fpga");
    }
    std::vector<PairResult> results(pairs.size());
    filter->FilterBatch(block.view(), e, results.data());
    for (std::size_t i = 0; i < results.size(); ++i) {
      accepts[i] = results[i].accept;
      accepted += results[i].accept;
    }
    ft = timer.Seconds();
  }

  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    os << "# pair_index\taccept\n";
    for (std::size_t i = 0; i < accepts.size(); ++i) {
      os << i << '\t' << static_cast<int>(accepts[i]) << '\n';
    }
    std::printf("decisions written to %s\n", out.c_str());
  }
  std::printf("%s: %zu pairs, e=%d -> accepted %llu (%.2f%%), rejected %llu\n",
              algo.c_str(), pairs.size(), e,
              static_cast<unsigned long long>(accepted),
              100.0 * static_cast<double>(accepted) /
                  static_cast<double>(pairs.size()),
              static_cast<unsigned long long>(pairs.size() - accepted));
  if (kt >= 0.0) {
    std::printf("kernel time %.4f s (simulated device), filter time %.4f s\n",
                kt, ft);
  } else {
    std::printf("filter time %.4f s (host)\n", ft);
  }
  std::printf("batch kernels: %s (GKGPU_NO_AVX2=1 forces scalar, "
              "GKGPU_NO_AVX512=1 caps at avx2)\n",
              simd::LevelName(simd::ActiveLevel()));
  return 0;
}

/// `map --paired R1 R2` / `map --interleaved FILE`: the paired-end
/// subsystem — strand-aware seeding, insert-size pairing, mate rescue,
/// full SAM flag semantics.
int MapPairedCmd(const Args& args, ReferenceSet refset,
                 const MappedIndexFile* mapped) {
  const auto paired_files = args.GetList("paired");
  const std::string interleaved = args.Get("interleaved", "");
  if (interleaved.empty() && paired_files.size() != 2) {
    std::fprintf(stderr,
                 "map: --paired needs exactly two FASTQ operands "
                 "(R1 and R2), or use --interleaved FILE\n");
    return 2;
  }
  // Open the mate stream(s); read length comes from the first R1 record.
  std::ifstream in1, in2;
  if (interleaved.empty()) {
    in1.open(paired_files[0]);
    in2.open(paired_files[1]);
    if (!in1 || !in2) {
      std::fprintf(stderr, "cannot open %s / %s\n", paired_files[0].c_str(),
                   paired_files[1].c_str());
      return 1;
    }
  } else {
    in1.open(interleaved);
    if (!in1) {
      std::fprintf(stderr, "cannot open %s\n", interleaved.c_str());
      return 1;
    }
  }
  int length = static_cast<int>(args.GetInt("length", 0));
  if (length <= 0) {
    std::ifstream peek(interleaved.empty() ? paired_files[0] : interleaved);
    FastqStreamReader peek_reader(peek);
    FastqRecord first;
    if (!peek_reader.Next(&first)) {
      std::fprintf(stderr, "no reads in the paired input\n");
      return 1;
    }
    length = static_cast<int>(first.seq.size());
  }

  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = length;
  mcfg.error_threshold = static_cast<int>(args.GetInt("e", 5));
  mcfg.verify_threads = PoolThreads(args);
  // The paired path always seeds from an in-memory index, but when the
  // reference came from an index file it should seed the way that file
  // was built.
  if (mapped != nullptr) {
    mcfg.seed_mode = mapped->seed_mode();
    if (mapped->seed_mode() == SeedMode::kMinimizer) {
      mcfg.minimizer_w = mapped->minimizer_w();
    }
  }
  if (!ApplySeedFlags(args, mapped, &mcfg)) return 2;
  ReadMapper mapper(std::move(refset), mcfg);

  PairedConfig pconf;
  pconf.max_insert = args.GetInt("max-insert", 1000);
  pconf.mate_rescue = !args.Has("no-rescue");
  pconf.mark_duplicates = args.Has("mark-duplicates");
  pconf.optical_dup_distance =
      static_cast<int>(args.GetInt("optical-dup-distance", 0));
  pconf.mapq_cap =
      static_cast<int>(args.GetInt("mapq-cap", kDefaultMapqCap));
  pconf.read_group = args.Get("read-group", "");
  PairedEndMapper paired(mapper, pconf);

  std::unique_ptr<GateKeeperGpuEngine> engine;
  DeviceSet set;
  if (!args.Has("no-filter")) {
    set = ReferenceDeviceSet();
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = mcfg.error_threshold;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, set.ptrs);
  }

  const std::string sam_path = args.Get("sam", "");
  std::ofstream sam_file;
  std::ostream* sam = nullptr;
  if (!sam_path.empty()) {
    sam_file.open(sam_path);
    WriteSamHeader(sam_file, mapper.reference(), pconf.read_group);
    sam = &sam_file;
  }

  auto reader = interleaved.empty() ? PairedFastqReader(in1, in2)
                                    : PairedFastqReader(in1);
  const PairedStats stats = paired.MapPairs(reader, engine.get(), sam);

  TablePrinter t({"metric", "value"});
  t.AddRow({"pairs", TablePrinter::Count(stats.pairs)});
  t.AddRow({"proper pairs", TablePrinter::Count(stats.proper_pairs)});
  t.AddRow({"discordant", TablePrinter::Count(stats.discordant_pairs)});
  t.AddRow({"single-end", TablePrinter::Count(stats.single_end_pairs)});
  t.AddRow({"unmapped pairs", TablePrinter::Count(stats.unmapped_pairs)});
  t.AddRow({"rescued mates", TablePrinter::Count(stats.rescued_mates)});
  if (pconf.mark_duplicates) {
    t.AddRow({"duplicate pairs", TablePrinter::Count(stats.duplicate_pairs)});
    if (pconf.optical_dup_distance > 0) {
      t.AddRow({"optical duplicates",
                TablePrinter::Count(stats.optical_duplicate_pairs)});
    }
    t.AddRow({"duplicate discordant",
              TablePrinter::Count(stats.duplicate_discordant_pairs)});
    t.AddRow({"duplicate singletons",
              TablePrinter::Count(stats.duplicate_singletons)});
  }
  t.AddRow({"candidates seeded", TablePrinter::Count(stats.candidates_seeded)});
  t.AddRow({"after pairing", TablePrinter::Count(stats.candidates_paired)});
  t.AddRow({"pruning ratio", TablePrinter::Num(stats.PruningRatio(), 2)});
  t.AddRow({"verification pairs",
            TablePrinter::Count(stats.verification_pairs)});
  t.AddRow({"insert mean", TablePrinter::Num(stats.insert_mean, 1)});
  t.AddRow({"insert sigma", TablePrinter::Num(stats.insert_sigma, 1)});
  t.AddRow({"seeding (s)", TablePrinter::Num(stats.seeding_seconds, 3)});
  t.AddRow({"verification (s)", TablePrinter::Num(stats.verify_seconds, 3)});
  t.AddRow({"total (s)", TablePrinter::Num(stats.total_seconds, 3)});
  t.Print(std::cout);
  if (sam != nullptr) {
    std::printf("SAM written to %s (%llu records)\n", sam_path.c_str(),
                static_cast<unsigned long long>(2 * stats.pairs));
  }
  return 0;
}

int MapCmd(const Args& args) {
  bool ok = false;
  ReferenceInput input = LoadReferenceInput(args, &ok);
  if (!ok) return Usage();
  ObsRun obs_run(args);
  if (args.Has("paired") || args.Has("interleaved")) {
    return MapPairedCmd(args, input.TakeReference(), input.mapped.get());
  }
  const std::string reads_path = args.Get("reads", "");
  if (reads_path.empty()) return Usage();
  const auto fastq = ReadFastqFile(reads_path);
  if (fastq.empty()) {
    std::fprintf(stderr, "empty read set\n");
    return 1;
  }
  std::vector<std::string> reads;
  std::vector<std::string> names;
  reads.reserve(fastq.size());
  for (const auto& r : fastq) {
    reads.push_back(r.seq);
    names.push_back(r.name);
  }
  const int length = static_cast<int>(reads.front().size());
  const int e = static_cast<int>(args.GetInt("e", 5));

  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = length;
  mcfg.error_threshold = e;
  mcfg.verify_threads = PoolThreads(args);
  if (!ApplySeedFlags(args, input.mapped.get(), &mcfg)) return 2;
  ReadMapper mapper = input.MakeMapper(mcfg);

  std::unique_ptr<GateKeeperGpuEngine> engine;
  DeviceSet set;
  if (!args.Has("no-filter")) {
    const int setup = static_cast<int>(args.GetInt("setup", 1));
    const int ndev = static_cast<int>(args.GetInt("devices", 1));
    set = MakeDeviceSet(setup, ndev);
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, set.ptrs);
    input.LoadEngine(engine.get(), mapper);
  }

  std::vector<MappingRecord> records;
  const MappingStats stats = mapper.MapReads(reads, engine.get(), &records);

  TablePrinter t({"metric", "value"});
  t.AddRow({"reads", TablePrinter::Count(stats.reads)});
  t.AddRow({"seeder", SeedModeName(mapper.config().seed_mode)});
  if (mapper.index().shard_count() > 1) {
    t.AddRow({"index shards",
              TablePrinter::Count(mapper.index().shard_count())});
  }
  t.AddRow({"mappings", TablePrinter::Count(stats.mappings)});
  t.AddRow({"mapped reads", TablePrinter::Count(stats.mapped_reads)});
  t.AddRow({"candidates", TablePrinter::Count(stats.candidates_total)});
  t.AddRow({"verification pairs",
            TablePrinter::Count(stats.verification_pairs)});
  t.AddRow({"rejected pairs", TablePrinter::Count(stats.rejected_pairs)});
  t.AddRow({"reduction", TablePrinter::Percent(stats.ReductionPercent(), 1)});
  t.AddRow({"seeding (s)", TablePrinter::Num(stats.seeding_seconds, 3)});
  t.AddRow({"filtering (s)", TablePrinter::Num(stats.filter_seconds, 3)});
  t.AddRow({"verification (s)",
            TablePrinter::Num(stats.verification_seconds, 3)});
  t.AddRow({"total (s)", TablePrinter::Num(stats.total_seconds, 3)});
  t.Print(std::cout);

  const std::string sam_path = args.Get("sam", "");
  if (!sam_path.empty()) {
    const std::string read_group = args.Get("read-group", "");
    const SecondaryPolicy policy = args.Has("report-secondary")
                                       ? SecondaryPolicy::kReportSecondary
                                       : SecondaryPolicy::kBestOnly;
    std::ofstream sam(sam_path);
    WriteSamHeader(sam, mapper.reference(), read_group);
    WriteSamRecordsMultiChrom(
        sam, reads, names, records, mapper.reference(), read_group,
        static_cast<int>(args.GetInt("mapq-cap", kDefaultMapqCap)), policy);
    std::printf("SAM written to %s (%zu verified mappings%s)\n",
                sam_path.c_str(), records.size(),
                policy == SecondaryPolicy::kBestOnly
                    ? ", primary records only"
                    : ", secondaries flagged 0x100");
  }
  return 0;
}

int PipelineCmd(const Args& args) {
  ObsRun obs_run(args);
  const int e = static_cast<int>(args.GetInt("e", 5));
  const std::string reads_path = args.Get("reads", "");
  if (reads_path.empty()) return Usage();

  bool ok = false;
  ReferenceInput input = LoadReferenceInput(args, &ok);
  if (!ok) return Usage();
  std::ifstream fastq(reads_path);
  if (!fastq) {
    std::fprintf(stderr, "cannot open %s\n", reads_path.c_str());
    return 1;
  }
  // Read length defaults to the first record's, like `map`; --length
  // overrides (reads of any other length are skipped by the stream).
  int length = static_cast<int>(args.GetInt("length", 0));
  if (length <= 0) {
    std::ifstream peek(reads_path);
    FastqStreamReader peek_reader(peek);
    FastqRecord first;
    if (!peek_reader.Next(&first)) {
      std::fprintf(stderr, "no reads in %s\n", reads_path.c_str());
      return 1;
    }
    length = static_cast<int>(first.seq.size());
  }
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = length;
  mcfg.error_threshold = e;
  mcfg.verify_threads = PoolThreads(args);
  if (!ApplySeedFlags(args, input.mapped.get(), &mcfg)) return 2;
  ReadMapper mapper = input.MakeMapper(mcfg);

  const DeviceSet set = ReferenceDeviceSet();
  EngineConfig cfg;
  cfg.read_length = length;
  cfg.error_threshold = e;
  GateKeeperGpuEngine engine(cfg, set.ptrs);
  input.LoadEngine(&engine, mapper);

  pipeline::ReadToSamConfig scfg;
  scfg.read_group = args.Get("read-group", "");
  scfg.mapq_cap = static_cast<int>(args.GetInt("mapq-cap", kDefaultMapqCap));
  scfg.secondary = args.Has("report-secondary")
                       ? SecondaryPolicy::kReportSecondary
                       : SecondaryPolicy::kBestOnly;
  const std::string sam_path = args.Get("sam", "");
  std::ofstream sam_file;
  std::ostream* sam = nullptr;
  if (!sam_path.empty()) {
    sam_file.open(sam_path);
    WriteSamHeader(sam_file, mapper.reference(), scfg.read_group);
    sam = &sam_file;
  }
  const pipeline::ReadToSamStats stats =
      pipeline::StreamFastqToSam(fastq, mapper, &engine, scfg, sam);

  TablePrinter t({"metric", "value"});
  t.AddRow({"reads", TablePrinter::Count(stats.reads)});
  t.AddRow({"skipped reads", TablePrinter::Count(stats.skipped_reads)});
  t.AddRow({"candidates", TablePrinter::Count(stats.candidates)});
  t.AddRow({"mappings", TablePrinter::Count(stats.mappings)});
  t.AddRow({"mapped reads", TablePrinter::Count(stats.mapped_reads)});
  t.AddRow({"accepted", TablePrinter::Count(stats.accepted)});
  t.AddRow({"rejected", TablePrinter::Count(stats.rejected)});
  t.AddRow({"bypassed", TablePrinter::Count(stats.bypassed)});
  t.AddRow({"verified pairs", TablePrinter::Count(stats.verified_pairs)});
  t.Print(std::cout);
  if (sam != nullptr) {
    std::printf("SAM written to %s (%llu verified mappings)\n",
                sam_path.c_str(),
                static_cast<unsigned long long>(stats.mappings));
  }
  return 0;
}

/// `gkgpu index`: build the persistent index once; `map`/`pipeline`/
/// `serve` then start in microseconds via --index.
int IndexCmd(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) return Usage();
  const std::string out = args.Get("out", "ref.gki");
  SeedConfig scfg;
  scfg.k = static_cast<int>(args.GetInt("k", 12));
  if (args.Has("seed")) {
    const std::string name = args.Get("seed", "dense");
    const auto mode = ParseSeedMode(name);
    if (!mode) {
      std::fprintf(stderr, "unknown --seed mode '%s' (dense|minimizer)\n",
                   name.c_str());
      return 2;
    }
    scfg.mode = *mode;
  }
  scfg.minimizer_w =
      static_cast<int>(args.GetInt("minimizer-w", scfg.minimizer_w));
  scfg.shard_max_bp = args.GetInt("shard-max-bp", 0);
  WallTimer parse_timer;
  const ReferenceSet refset = ReferenceSet::FromFastaFile(ref_path);
  const double parse_s = parse_timer.Seconds();
  WallTimer build_timer;
  const std::uint64_t bytes = BuildAndWriteIndexFile(out, refset, scfg);
  const double build_s = build_timer.Seconds();
  const std::size_t shards =
      ShardPlan::Partition(refset, scfg.shard_max_bp).shard_count();
  std::printf(
      "wrote %s: %llu bytes, k=%d, %s seeds, %zu shard(s), "
      "%zu chromosome(s), %lld bp (parse %.3f s, build+write %.3f s)\n",
      out.c_str(), static_cast<unsigned long long>(bytes), scfg.k,
      SeedModeName(scfg.mode), shards, refset.chromosome_count(),
      static_cast<long long>(refset.length()), parse_s, build_s);
  if (args.Has("verify")) {
    IndexLoadOptions options;
    options.verify_checksum = true;
    WallTimer load_timer;
    // A mismatch throws from Open with the failing section named
    // (e.g. "checksum mismatch in section 'shard-1-csr'").
    const MappedIndexFile mapped = MappedIndexFile::Open(out, options);
    std::printf("verified in %.3f s: all %llu section checksums OK, "
                "reference fingerprint %016llx\n",
                load_timer.Seconds(),
                static_cast<unsigned long long>(5 + mapped.shard_count()),
                static_cast<unsigned long long>(
                    mapped.reference_fingerprint()));
  }
  return 0;
}

serve::MapServer* g_server = nullptr;

void HandleServeSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();  // async-signal-safe
}

/// `gkgpu serve`: the mapping daemon.  Loads the reference once (ideally
/// via --index), then serves concurrent map jobs over a Unix-domain
/// socket, coalescing reads from simultaneous clients into shared
/// chunks.  SIGTERM/SIGINT drain and exit.
int ServeCmd(const Args& args) {
  bool ok = false;
  ReferenceInput input = LoadReferenceInput(args, &ok);
  if (!ok) return Usage();
  const std::string socket_path = args.Get("socket", "");
  if (socket_path.empty()) return Usage();
  const int length = static_cast<int>(args.GetInt("length", 100));
  const int e = static_cast<int>(args.GetInt("e", 5));
  const int threads = static_cast<int>(args.GetInt("threads", 2));

  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = length;
  mcfg.error_threshold = e;
  mcfg.verify_threads = static_cast<unsigned>(threads > 0 ? threads : 1);
  if (!ApplySeedFlags(args, input.mapped.get(), &mcfg)) return 2;
  ReadMapper mapper = input.MakeMapper(mcfg);

  const DeviceSet set = ReferenceDeviceSet();
  EngineConfig cfg;
  cfg.read_length = length;
  cfg.error_threshold = e;
  GateKeeperGpuEngine engine(cfg, set.ptrs);
  input.LoadEngine(&engine, mapper);

  serve::ServeConfig scfg;
  scfg.socket_path = socket_path;
  scfg.threads = threads > 0 ? threads : 1;
  scfg.linger_ms = static_cast<int>(args.GetInt("linger", 2));
  scfg.request_timeout_sec = static_cast<int>(args.GetInt("timeout", 30));
  scfg.mapq_cap = static_cast<int>(args.GetInt("mapq-cap", kDefaultMapqCap));
  scfg.read_group = args.Get("read-group", "");

  serve::MapServer server(mapper, &engine, scfg);
  g_server = &server;
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  std::printf("serving on %s (%s reference, read length %d, e=%d, "
              "%d threads); SIGTERM drains\n",
              socket_path.c_str(),
              input.FromIndex() ? "mmap'd" : "in-memory", length, e,
              scfg.threads);
  std::fflush(stdout);
  server.Run();
  g_server = nullptr;

  const serve::ServeStats stats = server.stats();
  TablePrinter t({"metric", "value"});
  t.AddRow({"sessions accepted", TablePrinter::Count(stats.sessions_accepted)});
  t.AddRow(
      {"sessions completed", TablePrinter::Count(stats.sessions_completed)});
  t.AddRow({"sessions failed", TablePrinter::Count(stats.sessions_failed)});
  t.AddRow({"reads", TablePrinter::Count(stats.reads)});
  t.AddRow({"skipped reads", TablePrinter::Count(stats.skipped_reads)});
  t.AddRow({"SAM records", TablePrinter::Count(stats.records)});
  t.AddRow({"chunks", TablePrinter::Count(stats.batches)});
  t.AddRow({"coalesced chunks", TablePrinter::Count(stats.coalesced_batches)});
  t.Print(std::cout);
  return 0;
}

/// `gkgpu map-client`: submit one FASTQ to a running daemon and stream
/// the SAM back (stdout unless --sam).
int MapClientCmd(const Args& args) {
  const std::string socket_path = args.Get("socket", "");
  const std::string reads_path = args.Get("reads", "");
  if (socket_path.empty() || reads_path.empty()) return Usage();
  std::ifstream fastq(reads_path);
  if (!fastq) {
    std::fprintf(stderr, "cannot open %s\n", reads_path.c_str());
    return 1;
  }
  serve::JobSpec job;
  job.read_group = args.Get("read-group", "");
  if (args.Has("mapq-cap")) {
    job.mapq_cap = static_cast<int>(args.GetInt("mapq-cap", -1));
  }
  job.report_secondary = args.Has("report-secondary");

  const std::string sam_path = args.Get("sam", "");
  std::ofstream sam_file;
  std::ostream* sam = &std::cout;
  if (!sam_path.empty()) {
    sam_file.open(sam_path);
    if (!sam_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", sam_path.c_str());
      return 1;
    }
    sam = &sam_file;
  }
  const serve::ClientStats stats =
      serve::MapOverSocket(socket_path, fastq, *sam, job);
  // Stats go to stderr: stdout may be the SAM stream.
  std::fprintf(stderr, "map-client: %llu reads -> %llu records via %s\n",
               static_cast<unsigned long long>(stats.reads),
               static_cast<unsigned long long>(stats.records),
               socket_path.c_str());
  return 0;
}

/// `gkgpu stats`: scrape a running daemon's metrics registry and print
/// the Prometheus text exposition to stdout.
int StatsCmd(const Args& args) {
  const std::string socket_path = args.Get("socket", "");
  if (socket_path.empty()) return Usage();
  std::fputs(serve::QueryStats(socket_path).c_str(), stdout);
  return 0;
}

/// A command and every option it takes, space-separated.
struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* options;
};

constexpr Command kCommands[] = {
    {"generate-genome", GenerateGenomeCmd, "length out seed chromosomes"},
    {"generate-reads", GenerateReadsCmd, "ref count length out profile seed"},
    {"generate-paired-reads", GeneratePairedReadsCmd,
     "ref count length out1 out2 interleaved insert-mean insert-sd "
     "profile seed"},
    {"generate-pairs", GeneratePairsCmd, "profile length count out seed"},
    {"filter", FilterCmd, "pairs e algo setup devices encode out"},
    {"map", MapCmd,
     "ref index verify e sam read-group mapq-cap threads seed minimizer-w "
     "shard-max-bp metrics-json trace-json reads no-filter report-secondary "
     "setup devices paired interleaved length max-insert no-rescue "
     "mark-duplicates optical-dup-distance"},
    {"pipeline", PipelineCmd,
     "reads ref index verify e sam threads length read-group mapq-cap "
     "report-secondary seed minimizer-w shard-max-bp metrics-json "
     "trace-json"},
    {"index", IndexCmd, "ref out k verify seed minimizer-w shard-max-bp"},
    {"serve", ServeCmd,
     "ref index verify socket length e threads timeout linger read-group "
     "mapq-cap seed minimizer-w shard-max-bp"},
    {"map-client", MapClientCmd,
     "socket reads sam read-group mapq-cap report-secondary"},
    {"stats", StatsCmd, "socket"},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (cmd == c.name) command = &c;
  }
  if (command == nullptr) return Usage();
  const Args args(argc, argv, 2);
  const std::string unknown = args.Unknown(command->options);
  if (!unknown.empty()) {
    std::fprintf(stderr, "%s: unknown option --%s\n", cmd.c_str(),
                 unknown.c_str());
    return 2;
  }
  try {
    return command->run(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
