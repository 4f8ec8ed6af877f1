// Paired-end mapping vs two independent single-end passes: how much
// verification work the pairing constraint removes (the candidate-pruning
// ratio) and what it does to throughput.
//
// The single-end baseline maps R1 and the R2 set as two MapReads calls —
// every oriented candidate of every mate enters filtration/verification
// independently.  The paired path prunes each mate's candidates to those
// an opposite-strand partner can complete within the insert window before
// the filter ever sees them, then scores concordant combinations and
// rescues lost mates.
//
// Gates (exercised by CI):
//   * pruning ratio > 1.0 — pairing must remove candidates on concordant
//     2x100 bp data;
//   * >= 90% of simulated pairs recover as proper pairs.
//
// Scale with GKGPU_PAIRS (default 20,000 pairs) and GKGPU_REPS
// (min-of-reps, default 3).
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "io/fastq.hpp"
#include "mapper/mapper.hpp"
#include "paired/paired.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/table.hpp"

using namespace gkgpu;
using namespace gkgpu::bench;

namespace {

constexpr int kLength = 100;
constexpr int kThreshold = 5;

struct Workload {
  std::string genome;
  std::vector<FastqRecord> r1, r2;
  std::vector<std::string> r1_seqs, r2_seqs;
};

Workload MakeWorkload(std::size_t n_pairs) {
  Workload w;
  w.genome = GenerateGenome(2000000, 11);
  PairSimConfig cfg;
  cfg.read_length = kLength;
  cfg.insert_mean = 350.0;
  cfg.insert_sd = 30.0;
  const auto pairs = SimulatePairs(w.genome, n_pairs, cfg, 13);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    w.r1.push_back({"p" + std::to_string(i), pairs[i].seq1, ""});
    w.r2.push_back({"p" + std::to_string(i), pairs[i].seq2, ""});
    w.r1_seqs.push_back(pairs[i].seq1);
    w.r2_seqs.push_back(pairs[i].seq2);
  }
  return w;
}

MapperConfig MakeMapperConfig() {
  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = kLength;
  mcfg.error_threshold = kThreshold;
  return mcfg;
}

}  // namespace

int main() {
  const std::size_t n_pairs = EnvSize("GKGPU_PAIRS", 20000);
  const int reps = static_cast<int>(EnvSize("GKGPU_REPS", 3));
  const Workload w = MakeWorkload(n_pairs);
  std::printf("paired-end bench: %zu pairs of 2x%d bp, e=%d, %d reps "
              "(min-of-reps)\n\n",
              n_pairs, kLength, kThreshold, reps);

  // --- Baseline: two independent single-end passes. ---
  double se_seconds = 0.0;
  std::uint64_t se_candidates = 0;
  std::uint64_t se_verify = 0;
  std::uint64_t se_mapped = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto devices = gpusim::MakeSetup1(2);
    auto ptrs = Ptrs(devices);
    EngineConfig ecfg;
    ecfg.read_length = kLength;
    ecfg.error_threshold = kThreshold;
    GateKeeperGpuEngine engine(ecfg, ptrs);
    ReadMapper mapper(w.genome, MakeMapperConfig());
    const MappingStats s1 = mapper.MapReads(w.r1_seqs, &engine, nullptr);
    const MappingStats s2 = mapper.MapReads(w.r2_seqs, &engine, nullptr);
    const double t = s1.total_seconds + s2.total_seconds;
    se_seconds = rep == 0 ? t : std::min(se_seconds, t);
    se_candidates = s1.candidates_total + s2.candidates_total;
    se_verify = s1.verification_pairs + s2.verification_pairs;
    se_mapped = s1.mapped_reads + s2.mapped_reads;
  }

  // --- Paired path. ---
  double pe_seconds = 0.0;
  PairedStats pe;
  const GateKeeperFilter filter;
  for (int rep = 0; rep < reps; ++rep) {
    ReadMapper mapper(w.genome, MakeMapperConfig());
    PairedConfig pconf;
    pconf.max_insert = 800;
    PairedEndMapper paired(mapper, pconf);
    pe = paired.MapPairs(w.r1, w.r2, &filter, nullptr);
    pe_seconds =
        rep == 0 ? pe.total_seconds : std::min(pe_seconds, pe.total_seconds);
  }

  const double prune = pe.PruningRatio();
  const double verify_ratio =
      pe.verification_pairs > 0
          ? static_cast<double>(se_verify) /
                static_cast<double>(pe.verification_pairs)
          : 0.0;
  const double se_rate = se_seconds > 0.0
                             ? static_cast<double>(n_pairs) / se_seconds
                             : 0.0;
  const double pe_rate = pe_seconds > 0.0
                             ? static_cast<double>(n_pairs) / pe_seconds
                             : 0.0;

  TablePrinter t({"metric", "single-end x2", "paired"});
  t.AddRow({"candidates", TablePrinter::Count(se_candidates),
            TablePrinter::Count(pe.candidates_paired)});
  t.AddRow({"verification pairs", TablePrinter::Count(se_verify),
            TablePrinter::Count(pe.verification_pairs)});
  t.AddRow({"mapped reads / proper pairs", TablePrinter::Count(se_mapped),
            TablePrinter::Count(pe.proper_pairs)});
  t.AddRow({"wall (s)", TablePrinter::Num(se_seconds, 3),
            TablePrinter::Num(pe_seconds, 3)});
  t.AddRow({"pairs/s", TablePrinter::Num(se_rate, 0),
            TablePrinter::Num(pe_rate, 0)});
  t.Print(std::cout);
  std::printf(
      "\npruning ratio (seeded/after-pairing): %.2fx\n"
      "verification reduction vs single-end:  %.2fx\n"
      "proper pairs: %llu/%zu (rescued %llu), insert model %.1f +/- %.1f\n",
      prune, verify_ratio,
      static_cast<unsigned long long>(pe.proper_pairs), n_pairs,
      static_cast<unsigned long long>(pe.rescued_mates), pe.insert_mean,
      pe.insert_sigma);
  bool ok = true;
  if (!(prune > 1.0)) {
    std::printf("FAIL: pairing pruned nothing (ratio %.2f <= 1.0)\n", prune);
    ok = false;
  }
  if (pe.proper_pairs * 10 < n_pairs * 9) {
    std::printf("FAIL: only %llu/%zu pairs recovered as proper\n",
                static_cast<unsigned long long>(pe.proper_pairs), n_pairs);
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "BENCH GATE FAILED");

  // Machine-readable trajectory point (uploaded as a CI artifact).
  BenchReport report("paired");
  report.Add("pairs", n_pairs);
  report.Add("reps", reps);
  report.Add("read_length", kLength);
  report.Add("error_threshold", kThreshold);
  report.Add("pruning_ratio", prune);
  report.Add("verification_reduction", verify_ratio);
  report.Add("proper_pairs", pe.proper_pairs);
  report.Add("rescued_mates", pe.rescued_mates);
  report.Add("rescue_invocations", pe.rescue_invocations);
  report.Add("insert_mean", pe.insert_mean);
  report.Add("insert_sigma", pe.insert_sigma);
  report.Add("single_end_seconds", se_seconds);
  report.Add("paired_seconds", pe_seconds);
  report.Add("single_end_pairs_per_s", se_rate);
  report.Add("paired_pairs_per_s", pe_rate);
  report.Add("gate_pass", ok);
  report.Write();
  return ok ? 0 : 1;
}
