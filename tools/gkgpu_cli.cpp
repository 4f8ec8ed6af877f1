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
//                [--sam out.sam] [--threads N]
//   gkgpu map    --ref ref.fa --paired r1.fq r2.fq --e 5 [--sam out.sam]
//   gkgpu index  --ref ref.fa --out ref.gki [--k 12] [--verify]
//   gkgpu serve  --index ref.gki --socket /tmp/gk.sock [--threads N]
//   gkgpu map-client --socket /tmp/gk.sock --reads r.fq [--sam out.sam]
//   gkgpu stats  --socket /tmp/gk.sock
//
// `filter --algo gkgpu` runs the full engine (simulated GPU, batching,
// unified memory); the other algorithms run as host filters.  `filter` is
// the only command that builds devices (`--setup`, `--devices`), and it
// rejects them and `--encode` under a host `--algo`.  `map`
// streams FASTQ: chunk workers on the mapper's pool each seed, filter with
// the host GateKeeper over the mapper's 2-bit reference, verify and format
// a chunk of reads (`--reads`) or pairs (`--paired`, `--interleaved`), and
// the SAM is written in input order; `serve` maps the same way.  `map`
// takes one input and rejects the other mode's options.  Every
// command rejects options it does not take (exit 2), an operand it would
// otherwise drop (a second one to an option that takes one — only
// `--paired` takes two —, an option given twice, an operand before the
// first option), integer options outside their range (`--e` 0-52,
// `--devices` 1-8, `--setup` 1-2, `--mapq-cap` 0-254, `--threads` 0-1024
// on `map` and 1-1024 on `serve`, `index --k` 4-14, the generators'
// `--count` 1-10^8), and a named operand outside its accepted values
// (`--profile`, `--algo`, `--encode`), all before any work.  Every output
// file is opened before any work, so an unwritable path fails by name
// (exit 1) up front.
// `index` persists the reference + k-mer index + 2-bit encoding to one
// mmap-able file; `serve` is the resident mapping daemon and
// `map-client` submits jobs to it.  Reference-consuming commands accept
// `--index FILE` in place of `--ref FASTA` to start instantly.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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
#include "mapper/index.hpp"
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

/// A malformed option value.  main reports it like an unknown option:
/// exit 2, naming the option.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        // Only an operand before the first option reaches here.
        if (stray_.empty()) stray_ = key;
        continue;
      }
      key = key.substr(2);
      std::vector<std::string> operands;
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        operands.push_back(key.substr(eq + 1));
        key.resize(eq);
      } else {
        // Consume every following non-flag token, so multi-operand options
        // like `--paired r1.fq r2.fq` work; absent operands mean a boolean.
        while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          operands.emplace_back(argv[++i]);
        }
        if (operands.empty()) operands.emplace_back("1");
      }
      if (values_.count(key) != 0 && repeated_.empty()) repeated_ = key;
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
  /// The integer operand of `key` (`fallback` when absent).  Throws
  /// UsageError unless the whole operand parses and lies in [min, max].
  long GetInt(const std::string& key, long fallback,
              long min = std::numeric_limits<long>::min(),
              long max = std::numeric_limits<long>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second.front();
    const char* end = text.data() + text.size();
    long value = 0;
    const auto [last, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || last != end) {
      throw UsageError("bad value for --" + key + ": '" + text +
                       "' (expected an integer)");
    }
    if (value < min) {
      throw UsageError("--" + key + " must be >= " + std::to_string(min) +
                       ", got " + text);
    }
    if (value > max) {
      throw UsageError("--" + key + " must be <= " + std::to_string(max) +
                       ", got " + text);
    }
    return value;
  }
  /// The value `choices` pairs with the operand of `key` (with `fallback`
  /// when absent).  Throws UsageError, naming the accepted operands, for
  /// any other operand.
  template <typename T>
  T GetChoice(
      const std::string& key, std::string_view fallback,
      std::initializer_list<std::pair<std::string_view, T>> choices) const {
    const auto it = values_.find(key);
    const std::string operand =
        it != values_.end() ? it->second.front() : std::string(fallback);
    std::string accepted;
    for (const auto& [name, value] : choices) {
      if (name == operand) return value;
      if (!accepted.empty()) accepted += '|';
      accepted += name;
    }
    throw UsageError("bad value for --" + key + ": '" + operand +
                     "' (expected " + accepted + ")");
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  /// The options of `names`, a space-separated list of option names, that
  /// are given, in name order.
  std::vector<std::string> Given(std::string_view names) const {
    std::vector<std::string> given;
    for (const auto& [key, operands] : values_) {
      if (Listed(names, key)) given.push_back(key);
    }
    return given;
  }
  /// The first option given that `allowed`, a space-separated list of
  /// option names, lacks ("" = none).
  std::string Unknown(std::string_view allowed) const {
    for (const auto& [key, operands] : values_) {
      if (!Listed(allowed, key)) return key;
    }
    return {};
  }
  /// A usage message for an operand that would otherwise be dropped ("" =
  /// none): one before the first option, an option given twice, or a
  /// second operand of an option outside `multi` (a space-separated list of
  /// the options that take several), since Get and GetInt read one.
  std::string OperandError(std::string_view multi) const {
    if (!stray_.empty()) return "unexpected operand '" + stray_ + "'";
    if (!repeated_.empty()) return "--" + repeated_ + " is given twice";
    for (const auto& [key, operands] : values_) {
      if (operands.size() < 2 || Listed(multi, key)) continue;
      std::string message = "--" + key + " takes one operand, got " +
                            std::to_string(operands.size()) + ":";
      for (const std::string& operand : operands) message += " " + operand;
      return message;
    }
    return {};
  }

 private:
  static bool Listed(std::string_view names, const std::string& key) {
    const std::string words = " " + std::string(names) + " ";
    return words.find(" " + key + " ") != std::string::npos;
  }

  std::map<std::string, std::vector<std::string>> values_;
  std::string stray_;     // the first operand before any option
  std::string repeated_;  // the first option given twice
};

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
  /// Builds the mapper without re-deriving anything that is already on
  /// disk: mapped input reuses the persisted reference and per-shard CSR
  /// indexes as views (the ReferenceInput must outlive the mapper) and
  /// forces `k` to the index's, which is what the file was built with;
  /// FASTA input moves `owned` into the mapper, which builds the sharded
  /// index from the text.
  ReadMapper MakeMapper(MapperConfig mcfg) {
    if (mapped != nullptr) {
      mcfg.k = mapped->k();
      return ReadMapper(mapped->reference(), mapped->seed_index().Alias(),
                        mapped->encoding(), mcfg);
    }
    return ReadMapper(std::move(owned), mcfg);
  }
};

/// True when exactly one of `--index FILE` and `--ref FASTA` is given.
bool HasReferenceInput(const Args& args) {
  return args.Has("index") != args.Has("ref");
}

/// Resolves `--index FILE` or `--ref FASTA` (HasReferenceInput must hold).
/// Throws on open/validation failure.
ReferenceInput LoadReferenceInput(const Args& args) {
  ReferenceInput input;
  const std::string index_path = args.Get("index", "");
  if (!index_path.empty()) {
    IndexLoadOptions options;
    options.verify_checksum = args.Has("verify");
    input.mapped = std::make_unique<MappedIndexFile>(
        MappedIndexFile::Open(index_path, options));
  } else {
    input.owned = ReferenceSet::FromFastaFile(args.Get("ref", ""));
  }
  return input;
}

/// An output file named by `--<key>`, opened when constructed — before any
/// work — so an unwritable path fails by name (exit 1) up front.
class OutputFile {
 public:
  OutputFile(const Args& args, const char* key) : path_(args.Get(key, "")) {
    if (path_.empty()) return;
    file_.open(path_);
    if (!file_) {
      throw std::runtime_error("cannot open " + path_ + " for writing");
    }
  }
  /// The open file, or null when the option is absent.
  std::ostream* get() { return path_.empty() ? nullptr : &file_; }
  const std::string& path() const { return path_; }
  /// Flushes and closes the file; throws naming it unless every byte was
  /// written.
  void Close() {
    file_.close();
    if (!file_) throw std::runtime_error("cannot write " + path_);
  }

 private:
  std::string path_;
  std::ofstream file_;
};

constexpr long kIntMax = std::numeric_limits<int>::max();

/// The read length of a mapping run: `length` (map's `--length N`), else,
/// when it is 0, the length of the first record of `fastq_path`.
int ReadLength(int length, const std::string& fastq_path) {
  if (length > 0) return length;
  std::ifstream peek(fastq_path);
  FastqStreamReader peek_reader(peek);
  FastqRecord first;
  if (!peek_reader.Next(&first)) {
    throw std::runtime_error("no reads in " + fastq_path);
  }
  return static_cast<int>(first.seq.size());
}

/// `--mapq-cap N`: the MAPQ ceiling, 0 to kMaxMapqCap.
int MapqCap(const Args& args) {
  return static_cast<int>(
      args.GetInt("mapq-cap", kDefaultMapqCap, 0, kMaxMapqCap));
}

/// `--e N`: the edit threshold, 0 to kMaxErrorThreshold (the filter
/// kernels' capacity).
int ErrorThreshold(const Args& args) {
  return static_cast<int>(args.GetInt("e", 5, 0, kMaxErrorThreshold));
}

/// The filter of `map` and `serve`: the host GateKeeper, or none under
/// `map --no-filter`.  A read length beyond the filter kernels' capacity
/// is rejected here, before any SAM is written.
const PreAlignmentFilter* MappingFilter(const Args& args, int read_length) {
  static const GateKeeperFilter gatekeeper;
  if (args.Has("no-filter")) return nullptr;
  CheckFilterReadLength(read_length, "mapping");
  return &gatekeeper;
}

/// The most workers `--threads` may ask for, on `map` and `serve`.
constexpr long kMaxThreads = 1024;

/// `--shard-max-bp N`, the index's shard byte budget on `map`, `serve` and
/// `index`: 0 (one shard per 4 Gbp) to the most bases one shard addresses.
std::int64_t ShardMaxBp(const Args& args) {
  return args.GetInt("shard-max-bp", 0, 0,
                     static_cast<long>(KmerIndex::kMaxGenomeLength));
}

/// The mapper options of `map` and `serve`, parsed before the reference
/// loads so a bad value exits 2 up front: `--e`, `--shard-max-bp`,
/// `--length` (at least 1; `default_length` when absent) and `--threads`,
/// the size of the pool every mapping driver runs on, `min_threads` to
/// kMaxThreads (`default_threads` when absent; 0 means hardware
/// concurrency).  k is the default 12 unless an index file sets it
/// (ReferenceInput::MakeMapper).
MapperConfig MapperOptions(const Args& args, long min_threads,
                           long default_threads, int default_length) {
  MapperConfig mcfg;
  mcfg.error_threshold = ErrorThreshold(args);
  mcfg.verify_threads = static_cast<unsigned>(args.GetInt(
      "threads", default_threads, min_threads, kMaxThreads));
  mcfg.shard_max_bp = ShardMaxBp(args);
  mcfg.read_length =
      static_cast<int>(args.GetInt("length", default_length, 1, kIntMax));
  return mcfg;
}

/// The pairing options of `map`, range-checked with the mapper's before
/// the reference loads: `--max-insert` at least 1 and
/// `--optical-dup-distance` at least 0.
PairedConfig PairedOptions(const Args& args) {
  PairedConfig pconf;
  pconf.max_insert = args.GetInt("max-insert", 1000, 1, kIntMax);
  pconf.mate_rescue = !args.Has("no-rescue");
  pconf.mark_duplicates = args.Has("mark-duplicates");
  pconf.optical_dup_distance =
      static_cast<int>(args.GetInt("optical-dup-distance", 0, 0, kIntMax));
  pconf.mapq_cap = MapqCap(args);
  pconf.read_group = args.Get("read-group", "");
  return pconf;
}

// `serve --linger MS`: at most a second for a chunk to fill.  `serve
// --timeout SEC`: at most a day of client silence (0 disables it).
constexpr long kMaxLingerMs = 1000;
constexpr long kMaxTimeoutSec = 86'400;

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

/// The observability tail of `map`: opens --metrics-json and --trace-json
/// before any work and arms the tracer; Finish prints the funnel/latency
/// tables and writes both files.
class ObsRun {
 public:
  explicit ObsRun(const Args& args)
      : metrics_json_(args, "metrics-json"), trace_json_(args, "trace-json") {
    if (trace_json_.get() != nullptr) obs::StartTracing();
  }
  /// A run that ends in an error still reports; a file that cannot be
  /// written is then named on stderr.
  ~ObsRun() {
    if (finished_) return;
    try {
      Finish();
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
    }
  }
  /// Throws naming a file that could not be written.
  void Finish() {
    finished_ = true;
    const std::string trace =
        trace_json_.get() != nullptr ? obs::StopTracing() : std::string();
    const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    PrintObsTables(snap);
    if (std::ostream* os = metrics_json_.get()) {
      *os << snap.RenderJson();
      metrics_json_.Close();
      std::printf("metrics written to %s\n", metrics_json_.path().c_str());
    }
    if (std::ostream* os = trace_json_.get()) {
      *os << trace;
      trace_json_.Close();
      std::printf("trace written to %s (chrome://tracing or Perfetto)\n",
                  trace_json_.path().c_str());
    }
  }

 private:
  OutputFile metrics_json_;
  OutputFile trace_json_;
  bool finished_ = false;
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
      "                  [--shard-max-bp N] [--length N] [--no-filter]\n"
      "                  and one of:\n"
      "                    --reads FASTQ [--report-secondary]\n"
      "                    --paired R1.fq R2.fq | --interleaved FILE\n"
      "                      [--max-insert N] [--no-rescue]\n"
      "                      [--mark-duplicates] [--optical-dup-distance N]\n"
      "  index           --ref FASTA [--out FILE] [--k N] [--verify]\n"
      "                  [--shard-max-bp N]\n"
      "  serve           (--ref FASTA | --index FILE) --socket PATH\n"
      "                  [--length N] [--e N] [--threads N] [--timeout SEC]\n"
      "                  [--linger MS] [--read-group ID]\n"
      "                  [--mapq-cap N] [--shard-max-bp N]\n"
      "  map-client      --socket PATH --reads FASTQ [--sam FILE]\n"
      "                  [--read-group ID] [--mapq-cap N]\n"
      "                  [--report-secondary]\n"
      "  stats           --socket PATH   (Prometheus scrape of a daemon)\n"
      "  (map accepts --metrics-json FILE for the registry\n"
      "   snapshot and --trace-json FILE for a chrome://tracing timeline)\n"
      "  (FASTA references may be multi-chromosome; SAM output carries one\n"
      "   @SQ line per chromosome)\n",
      stderr);
  return 2;
}

// Upper bounds of the generators' sizes: reads, pairs or chromosomes per
// run, and generate-genome's bases.  The generators build everything they
// write in memory first (10^8 100-bp reads take ~45 GB), so the bounds are
// past any useful run, and they keep CountsPerChromosome's count x
// chromosome length (at most 10^8 x 10^10 for a generated genome, below
// 2^64 for any FASTA under 1.8 x 10^11 bp) from overflowing.
constexpr long kMaxGeneratedRecords = 100'000'000;
constexpr long kMaxGeneratedBases = 10'000'000'000;

/// The generators' `--length`: a read length of at least one base.
int GetLength(const Args& args) {
  return static_cast<int>(args.GetInt("length", 100, 1, kIntMax));
}

/// The generators' `--count`, 1 to kMaxGeneratedRecords.
std::size_t GetCount(const Args& args, long fallback) {
  return static_cast<std::size_t>(
      args.GetInt("count", fallback, 1, kMaxGeneratedRecords));
}

/// The generators' `--seed`, a non-negative integer.
std::uint64_t GetSeed(const Args& args, long fallback) {
  return static_cast<std::uint64_t>(args.GetInt("seed", fallback, 0));
}

/// The read generators' `--profile`: their sequencing-error profile.
ReadErrorProfile GetReadProfile(const Args& args) {
  return args.GetChoice<ReadErrorProfile>(
      "profile", "illumina",
      {{"illumina", ReadErrorProfile::Illumina()},
       {"richdel", ReadErrorProfile::RichDeletion()},
       {"lowindel", ReadErrorProfile::LowIndel()}});
}

int GenerateGenomeCmd(const Args& args) {
  const long length_arg =
      args.GetInt("length", 1000000, 1, kMaxGeneratedBases);
  const auto length = static_cast<std::size_t>(length_arg);
  const std::string out = args.Get("out", "reference.fa");
  const auto seed = GetSeed(args, 42);
  const auto chromosomes = static_cast<std::size_t>(args.GetInt(
      "chromosomes", 1, 1, std::min(length_arg, kMaxGeneratedRecords)));
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

/// How many of `count` reads (or pairs) each chromosome of `ref`
/// simulates: a share proportional to its length, the last chromosome
/// taking the remainder.  Chromosome c draws from its own RNG stream,
/// seed + c, so a one-chromosome FASTA gets the reads it always did.
/// Throws std::invalid_argument naming a chromosome shorter than
/// `length`-base reads that would receive some: the simulator would pad
/// them past its end with random bases.
std::vector<std::size_t> CountsPerChromosome(const ReferenceSet& ref,
                                             std::size_t count, int length) {
  std::vector<std::size_t> counts(ref.chromosome_count());
  std::size_t given = 0;
  for (std::size_t c = 0; c + 1 < counts.size(); ++c) {
    counts[c] = static_cast<std::size_t>(
        static_cast<std::uint64_t>(count) *
        static_cast<std::uint64_t>(ref.chromosome(c).length) /
        static_cast<std::uint64_t>(ref.length()));
    given += counts[c];
  }
  counts.back() = count - given;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const ChromosomeInfo& info = ref.chromosome(c);
    if (counts[c] > 0 && info.length < length) {
      throw std::invalid_argument(
          "chromosome " + info.name + " (" + std::to_string(info.length) +
          " bp) is shorter than --length " + std::to_string(length) +
          " and would receive " + std::to_string(counts[c]) + " read(s)");
    }
  }
  return counts;
}

std::string_view ChromosomeText(const ReferenceSet& ref, std::size_t c) {
  const ChromosomeInfo& info = ref.chromosome(c);
  return ref.text().substr(static_cast<std::size_t>(info.offset),
                           static_cast<std::size_t>(info.length));
}

int GenerateReadsCmd(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) return Usage();
  const std::size_t count = GetCount(args, 10000);
  const int length = GetLength(args);
  const auto seed = GetSeed(args, 43);
  const ReadErrorProfile profile = GetReadProfile(args);
  const auto records = ReadFastaFile(ref_path);
  if (records.empty()) {
    std::fprintf(stderr, "no sequences in %s\n", ref_path.c_str());
    return 1;
  }
  const ReferenceSet ref = ReferenceSet::FromFasta(records);
  const std::vector<std::size_t> counts =
      CountsPerChromosome(ref, count, length);
  std::vector<FastqRecord> fq;
  fq.reserve(count);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const std::string& chrom = ref.chromosome(c).name;
    for (const SimulatedRead& read :
         SimulateReads(ChromosomeText(ref, c), counts[c], length, profile,
                       seed + c)) {
      fq.push_back({"read_" + std::to_string(fq.size()) + "_" + chrom +
                        "_origin_" + std::to_string(read.origin),
                    read.seq, ""});
    }
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
  const std::size_t count = GetCount(args, 10000);
  const auto seed = GetSeed(args, 45);
  PairSimConfig cfg;
  cfg.read_length = GetLength(args);
  cfg.insert_mean =
      static_cast<double>(args.GetInt("insert-mean", 350, 1, kIntMax));
  cfg.insert_sd = static_cast<double>(args.GetInt("insert-sd", 30, 0, kIntMax));
  cfg.profile = GetReadProfile(args);
  const auto records = ReadFastaFile(ref_path);
  if (records.empty()) {
    std::fprintf(stderr, "no sequences in %s\n", ref_path.c_str());
    return 1;
  }
  const ReferenceSet ref = ReferenceSet::FromFasta(records);
  const std::vector<std::size_t> counts =
      CountsPerChromosome(ref, count, cfg.read_length);

  std::vector<FastqRecord> fq1, fq2;
  fq1.reserve(count);
  fq2.reserve(count);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const std::string& chrom = ref.chromosome(c).name;
    for (const SimulatedPair& pair :
         SimulatePairs(ChromosomeText(ref, c), counts[c], cfg, seed + c)) {
      const std::string stem = "pair_" + std::to_string(fq1.size()) + "_" +
                               chrom + "_frag_" +
                               std::to_string(pair.fragment_start) + "_" +
                               std::to_string(pair.fragment_length);
      fq1.push_back({stem + "/1", pair.seq1, ""});
      fq2.push_back({stem + "/2", pair.seq2, ""});
    }
  }
  const std::string interleaved = args.Get("interleaved", "");
  if (!interleaved.empty()) {
    std::vector<FastqRecord> both;
    both.reserve(2 * fq1.size());
    for (std::size_t i = 0; i < fq1.size(); ++i) {
      both.push_back(fq1[i]);
      both.push_back(fq2[i]);
    }
    WriteFastqFile(interleaved, both);
    std::printf("wrote %s (%zu interleaved pairs of 2x%d bp)\n",
                interleaved.c_str(), fq1.size(), cfg.read_length);
    return 0;
  }
  const std::string out1 = args.Get("out1", "reads_1.fq");
  const std::string out2 = args.Get("out2", "reads_2.fq");
  WriteFastqFile(out1, fq1);
  WriteFastqFile(out2, fq2);
  std::printf("wrote %s + %s (%zu pairs of 2x%d bp, insert %.0f +/- %.0f)\n",
              out1.c_str(), out2.c_str(), fq1.size(), cfg.read_length,
              cfg.insert_mean, cfg.insert_sd);
  return 0;
}

int GeneratePairsCmd(const Args& args) {
  const int length = GetLength(args);
  const std::size_t count = GetCount(args, 30000);
  const auto seed = GetSeed(args, 44);
  const auto make_profile = args.GetChoice<PairProfile (*)(int)>(
      "profile", "mrfast",
      {{"mrfast", MrFastCandidateProfile},
       {"lowedit", LowEditProfile},
       {"highedit", HighEditProfile},
       {"minimap2", Minimap2Profile},
       {"bwamem", BwaMemProfile}});
  const std::string name = args.Get("profile", "mrfast");
  const std::string out = args.Get("out", name + ".pairs.tsv");
  WritePairSetFile(out, GeneratePairs(count, make_profile(length), seed));
  std::printf("wrote %s (%zu pairs of %d bp, %s profile)\n", out.c_str(),
              count, length, name.c_str());
  return 0;
}

/// Builds one of `filter --algo`'s host filters.
using HostFilterMaker = std::unique_ptr<PreAlignmentFilter> (*)();

template <typename Filter>
std::unique_ptr<PreAlignmentFilter> MakeHostFilter() {
  return std::make_unique<Filter>();
}

/// The FPGA GateKeeper: the original mask pipeline, with no bypass of
/// undefined pairs.
std::unique_ptr<PreAlignmentFilter> MakeFpgaFilter() {
  GateKeeperParams p;
  p.mode = GateKeeperMode::kOriginal;
  p.bypass_undefined = false;
  return std::make_unique<GateKeeperFilter>(p);
}

int FilterCmd(const Args& args) {
  // The simulated devices of `--algo gkgpu`: paper Setup 1 (GTX 1080 Ti)
  // or 2 (K20X), 1 to 8 of them (the paper's multi-GPU range), parsed
  // before any work, so an out-of-range value is a usage error under every
  // --algo.
  const int setup = static_cast<int>(args.GetInt("setup", 1, 1, 2));
  const int device_count = static_cast<int>(args.GetInt("devices", 1, 1, 8));
  const int e = ErrorThreshold(args);
  // `gkgpu`, the default, runs the engine and has no host filter.
  const HostFilterMaker make_host_filter = args.GetChoice<HostFilterMaker>(
      "algo", "gkgpu",
      {{"gkgpu", nullptr},
       {"fpga", MakeFpgaFilter},
       {"shd", MakeHostFilter<ShdFilter>},
       {"magnet", MakeHostFilter<MagnetFilter>},
       {"shouji", MakeHostFilter<ShoujiFilter>},
       {"sneakysnake", MakeHostFilter<SneakySnakeFilter>},
       {"genasm", MakeHostFilter<GenAsmFilter>}});
  const std::string algo = args.Get("algo", "gkgpu");
  // A host filter would ignore the engine's options.
  const std::vector<std::string> engine_options =
      args.Given("setup devices encode");
  if (make_host_filter != nullptr && !engine_options.empty()) {
    throw UsageError("--" + engine_options[0] +
                     " applies to --algo gkgpu, not to --algo " + algo);
  }
  const EncodingActor encoding = args.GetChoice<EncodingActor>(
      "encode", "host",
      {{"host", EncodingActor::kHost}, {"device", EncodingActor::kDevice}});
  const std::string pairs_path = args.Get("pairs", "");
  if (pairs_path.empty()) return Usage();
  OutputFile out(args, "out");
  const auto pairs = ReadPairSetFile(pairs_path);
  if (pairs.empty()) {
    std::fprintf(stderr, "no pairs in %s\n", pairs_path.c_str());
    return 1;
  }
  const int length = static_cast<int>(pairs.front().read.size());

  std::vector<std::uint8_t> accepts(pairs.size(), 0);
  std::uint64_t accepted = 0;
  double kt = -1.0;
  double ft = 0.0;
  if (make_host_filter == nullptr) {
    const std::vector<std::unique_ptr<gpusim::Device>> devices =
        setup == 1 ? gpusim::MakeSetup1(device_count)
                   : gpusim::MakeSetup2(device_count);
    std::vector<gpusim::Device*> device_ptrs;
    for (const auto& d : devices) device_ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    cfg.encoding = encoding;
    GateKeeperGpuEngine engine(cfg, device_ptrs);
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
    const auto filter = make_host_filter();
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

  if (std::ostream* os = out.get()) {
    *os << "# pair_index\taccept\n";
    for (std::size_t i = 0; i < accepts.size(); ++i) {
      *os << i << '\t' << static_cast<int>(accepts[i]) << '\n';
    }
    out.Close();
    std::printf("decisions written to %s\n", out.path().c_str());
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
  std::printf("batch kernels: %s (GKGPU_NO_AVX2=1 forces scalar)\n",
              simd::LevelName(simd::ActiveLevel()));
  return 0;
}

/// `map --paired R1 R2` / `map --interleaved FILE`: the paired-end
/// subsystem — strand-aware seeding, insert-size pairing, mate rescue,
/// full SAM flag semantics.
int MapPairedCmd(const Args& args, MapperConfig mcfg, const PairedConfig& pconf,
                 ReferenceInput& input, OutputFile& sam_file) {
  const auto paired_files = args.GetList("paired");
  const std::string interleaved = args.Get("interleaved", "");
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
  const int length = ReadLength(
      mcfg.read_length, interleaved.empty() ? paired_files[0] : interleaved);

  mcfg.read_length = length;
  ReadMapper mapper = input.MakeMapper(mcfg);
  PairedEndMapper paired(mapper, pconf);
  const PreAlignmentFilter* filter = MappingFilter(args, length);

  std::ostream* sam = sam_file.get();
  if (sam != nullptr) WriteSamHeader(*sam, mapper.reference(), pconf.read_group);

  auto reader = interleaved.empty() ? PairedFastqReader(in1, in2)
                                    : PairedFastqReader(in1);
  const PairedStats stats = paired.MapPairs(reader, filter, sam);

  TablePrinter t({"metric", "value"});
  t.AddRow({"pairs", TablePrinter::Count(stats.pairs)});
  t.AddRow({"skipped pairs", TablePrinter::Count(stats.skipped_pairs)});
  t.AddRow({"proper pairs", TablePrinter::Count(stats.proper_pairs)});
  t.AddRow({"discordant", TablePrinter::Count(stats.discordant_pairs)});
  t.AddRow({"single-end", TablePrinter::Count(stats.single_end_pairs)});
  t.AddRow({"unmapped pairs", TablePrinter::Count(stats.unmapped_pairs)});
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
  t.AddRow({"verification pairs",
            TablePrinter::Count(stats.verification_pairs)});
  t.AddRow({"insert mean", TablePrinter::Num(stats.insert_mean, 1)});
  t.AddRow({"insert sigma", TablePrinter::Num(stats.insert_sigma, 1)});
  t.AddRow({"total (s)", TablePrinter::Num(stats.total_seconds, 3)});
  t.Print(std::cout);
  if (sam != nullptr) {
    sam_file.Close();
    std::printf("SAM written to %s (%llu records)\n", sam_file.path().c_str(),
                static_cast<unsigned long long>(2 * stats.pairs));
  }
  return 0;
}

/// `map --reads FASTQ`: the single-end driver, StreamFastqToSam on the
/// mapper's chunk workers.  Reads of another length than the run's
/// (ReadLength) are skipped and counted.
int MapSingleCmd(const Args& args, MapperConfig mcfg, ReferenceInput& input,
                 OutputFile& sam_file) {
  const std::string reads_path = args.Get("reads", "");
  std::ifstream fastq(reads_path);
  if (!fastq) {
    std::fprintf(stderr, "cannot open %s\n", reads_path.c_str());
    return 1;
  }
  const int length = ReadLength(mcfg.read_length, reads_path);
  mcfg.read_length = length;
  ReadMapper mapper = input.MakeMapper(mcfg);
  const PreAlignmentFilter* filter = MappingFilter(args, length);

  pipeline::ReadToSamConfig scfg;
  scfg.read_group = args.Get("read-group", "");
  scfg.mapq_cap = MapqCap(args);
  scfg.secondary = args.Has("report-secondary")
                       ? SecondaryPolicy::kReportSecondary
                       : SecondaryPolicy::kBestOnly;
  std::ostream* sam = sam_file.get();
  if (sam != nullptr) WriteSamHeader(*sam, mapper.reference(), scfg.read_group);
  const pipeline::ReadToSamStats stats =
      pipeline::StreamFastqToSam(fastq, mapper, filter, scfg, sam);

  TablePrinter t({"metric", "value"});
  t.AddRow({"reads", TablePrinter::Count(stats.reads)});
  t.AddRow({"skipped reads", TablePrinter::Count(stats.skipped_reads)});
  if (mapper.index().shard_count() > 1) {
    t.AddRow({"index shards",
              TablePrinter::Count(mapper.index().shard_count())});
  }
  t.Print(std::cout);
  if (sam != nullptr) {
    sam_file.Close();
    std::printf("SAM written to %s\n", sam_file.path().c_str());
  }
  return 0;
}

int MapCmd(const Args& args) {
  const bool paired = args.Has("paired") || args.Has("interleaved");
  if (!HasReferenceInput(args) || (!paired && !args.Has("reads"))) {
    return Usage();
  }
  // One input, and no option of the other mode: either would be ignored.
  const std::vector<std::string> inputs =
      args.Given("reads paired interleaved");
  if (inputs.size() > 1) {
    throw UsageError("--" + inputs[0] + " and --" + inputs[1] +
                     " name two inputs; give one");
  }
  const std::vector<std::string> other_mode =
      args.Given(paired ? "report-secondary"
                        : "max-insert no-rescue mark-duplicates "
                          "optical-dup-distance");
  if (!other_mode.empty()) {
    throw UsageError("--" + other_mode[0] + " applies to " +
                     (paired ? "--reads" : "--paired and --interleaved") +
                     ", not to --" + inputs[0]);
  }
  if (paired && !args.Has("interleaved") &&
      args.GetList("paired").size() != 2) {
    std::fprintf(stderr,
                 "map: --paired needs exactly two FASTQ operands "
                 "(R1 and R2), or use --interleaved FILE\n");
    return 2;
  }
  // Read length 0: the first read's.
  const MapperConfig mcfg = MapperOptions(
      args, /*min_threads=*/0, /*default_threads=*/0, /*default_length=*/0);
  const PairedConfig pconf = PairedOptions(args);
  OutputFile sam_file(args, "sam");
  ObsRun obs_run(args);
  ReferenceInput input = LoadReferenceInput(args);
  const int status = paired ? MapPairedCmd(args, mcfg, pconf, input, sam_file)
                            : MapSingleCmd(args, mcfg, input, sam_file);
  obs_run.Finish();
  return status;
}

/// `gkgpu index`: build the persistent index once; `map` and `serve` then
/// start in microseconds via --index.
int IndexCmd(const Args& args) {
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) return Usage();
  const std::string out = args.Get("out", "ref.gki");
  SeedConfig scfg;
  scfg.k = static_cast<int>(args.GetInt("k", 12, 4, 14));
  scfg.shard_max_bp = ShardMaxBp(args);
  // Probe the output before any work: opened for appending, an existing
  // index keeps its bytes until the new one replaces it.
  if (!std::ofstream(out, std::ios::binary | std::ios::app)) {
    throw std::runtime_error("cannot open " + out + " for writing");
  }
  WallTimer parse_timer;
  const ReferenceSet refset = ReferenceSet::FromFastaFile(ref_path);
  const double parse_s = parse_timer.Seconds();
  WallTimer build_timer;
  const std::uint64_t bytes = BuildAndWriteIndexFile(out, refset, scfg);
  const double build_s = build_timer.Seconds();
  const std::size_t shards =
      ShardPlan::Partition(refset, scfg.shard_max_bp).shard_count();
  std::printf(
      "wrote %s: %llu bytes, k=%d, %zu shard(s), %zu chromosome(s), "
      "%lld bp (parse %.3f s, build+write %.3f s)\n",
      out.c_str(), static_cast<unsigned long long>(bytes), scfg.k, shards,
      refset.chromosome_count(), static_cast<long long>(refset.length()),
      parse_s, build_s);
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
  const std::string socket_path = args.Get("socket", "");
  if (!HasReferenceInput(args) || socket_path.empty()) return Usage();
  const MapperConfig mcfg = MapperOptions(
      args, /*min_threads=*/1, /*default_threads=*/2, /*default_length=*/100);
  const int length = mcfg.read_length;
  serve::ServeConfig scfg;
  scfg.socket_path = socket_path;
  scfg.threads = static_cast<int>(mcfg.verify_threads);
  scfg.linger_ms = static_cast<int>(args.GetInt("linger", 2, 0, kMaxLingerMs));
  scfg.request_timeout_sec =
      static_cast<int>(args.GetInt("timeout", 30, 0, kMaxTimeoutSec));
  scfg.mapq_cap = MapqCap(args);
  scfg.read_group = args.Get("read-group", "");

  ReferenceInput input = LoadReferenceInput(args);
  ReadMapper mapper = input.MakeMapper(mcfg);
  const PreAlignmentFilter* filter = MappingFilter(args, length);

  serve::MapServer server(mapper, filter, scfg);
  // The signal handler must never see a destroyed server, also when Run
  // throws (a chunk worker's error fails the run).
  struct ClearServer {
    ~ClearServer() { g_server = nullptr; }
  } clear_server;
  g_server = &server;
  std::signal(SIGTERM, HandleServeSignal);
  std::signal(SIGINT, HandleServeSignal);
  std::printf("serving on %s (%s reference, read length %d, e=%d, "
              "%d threads); SIGTERM drains\n",
              socket_path.c_str(),
              input.FromIndex() ? "mmap'd" : "in-memory", length,
              mcfg.error_threshold, scfg.threads);
  std::fflush(stdout);
  server.Run();

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
    job.mapq_cap = MapqCap(args);
  }
  job.report_secondary = args.Has("report-secondary");

  OutputFile sam_file(args, "sam");
  std::ostream* sam = sam_file.get() != nullptr ? sam_file.get() : &std::cout;
  const serve::ClientStats stats =
      serve::MapOverSocket(socket_path, fastq, *sam, job);
  if (sam_file.get() != nullptr) sam_file.Close();
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
     "ref index verify e sam read-group mapq-cap threads shard-max-bp "
     "metrics-json trace-json reads no-filter report-secondary paired "
     "interleaved length max-insert no-rescue mark-duplicates "
     "optical-dup-distance"},
    {"index", IndexCmd, "ref out k verify shard-max-bp"},
    {"serve", ServeCmd,
     "ref index verify socket length e threads timeout linger read-group "
     "mapq-cap shard-max-bp"},
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
  if (command == nullptr) {
    std::fprintf(stderr, "gkgpu: unknown command '%s'\n", cmd.c_str());
    return Usage();
  }
  const Args args(argc, argv, 2);
  const std::string unknown = args.Unknown(command->options);
  if (!unknown.empty()) {
    std::fprintf(stderr, "%s: unknown option --%s\n", cmd.c_str(),
                 unknown.c_str());
    return 2;
  }
  const std::string operand_error = args.OperandError("paired");
  if (!operand_error.empty()) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), operand_error.c_str());
    return 2;
  }
  try {
    return command->run(args);
  } catch (const UsageError& ex) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), ex.what());
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
