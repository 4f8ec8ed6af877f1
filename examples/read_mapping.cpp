// End-to-end short read mapping with GateKeeper-GPU as the pre-alignment
// stage (the paper's Sec. 3.5 integration), on a synthetic genome with
// planted repeats: maps one read set twice — without and with the filter —
// and shows that the mappings are identical while the filter removes most
// of the verification work.  Writes the first mappings as SAM.
//
//   $ ./read_mapping [genome_bases] [reads]
//
// Defaults: 2,000,000 bp genome, 20,000 reads of 100 bp.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gkgpu;
  const std::size_t genome_len =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000;
  const std::size_t n_reads =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;

  std::printf("Generating a %zu bp genome with repeat families...\n",
              genome_len);
  const std::string genome = GenerateGenome(genome_len, 7);
  std::printf("Simulating %zu Illumina-like 100 bp reads...\n", n_reads);
  const auto reads = SimulateReadSequences(genome, n_reads, 100,
                                           ReadErrorProfile::Illumina(), 11);

  MapperConfig mcfg;
  mcfg.k = 12;
  mcfg.read_length = 100;
  mcfg.error_threshold = 5;
  ReadMapper mapper(genome, mcfg);

  std::printf("Mapping without a pre-alignment filter...\n");
  std::vector<MappingRecord> plain_records;
  const MappingStats plain = mapper.MapReads(reads, nullptr, &plain_records);

  std::printf("Mapping with GateKeeper-GPU...\n\n");
  auto devices = gpusim::MakeSetup1(1);
  std::vector<gpusim::Device*> ptrs{devices[0].get()};
  EngineConfig ecfg;
  ecfg.read_length = mcfg.read_length;
  ecfg.error_threshold = mcfg.error_threshold;
  GateKeeperGpuEngine engine(ecfg, ptrs);
  std::vector<MappingRecord> filtered_records;
  const MappingStats filtered = mapper.MapReads(reads, &engine,
                                                &filtered_records);

  TablePrinter table({"mrFAST w/", "mappings", "mapped reads",
                      "verification pairs", "rejected pairs", "reduction",
                      "DP time (s)"});
  table.AddRow({"No Filter", TablePrinter::Count(plain.mappings),
                TablePrinter::Count(plain.mapped_reads),
                TablePrinter::Count(plain.verification_pairs), "NA", "NA",
                TablePrinter::Num(plain.verification_seconds, 2)});
  table.AddRow({"GateKeeper-GPU", TablePrinter::Count(filtered.mappings),
                TablePrinter::Count(filtered.mapped_reads),
                TablePrinter::Count(filtered.verification_pairs),
                TablePrinter::Count(filtered.rejected_pairs),
                TablePrinter::Percent(filtered.ReductionPercent(), 0),
                TablePrinter::Num(filtered.verification_seconds, 2)});
  table.Print(std::cout);

  const bool identical = plain.mappings == filtered.mappings &&
                         plain.mapped_reads == filtered.mapped_reads;
  std::printf("\nmappings identical with and without filter: %s\n",
              identical ? "YES (no mappings lost)" : "NO (!)");
  const double speedup =
      filtered.verification_seconds > 0
          ? plain.verification_seconds / filtered.verification_seconds
          : 0.0;
  std::printf("verification speedup from filtering: %.1fx\n", speedup);

  std::printf("\nFirst mappings as SAM (real CIGARs via banded traceback):\n");
  std::ostringstream sam;
  WriteSamHeader(sam, mapper.reference());
  WriteSamRecordsMultiChrom(
      sam, reads, {},
      std::vector<MappingRecord>(
          filtered_records.begin(),
          filtered_records.begin() +
              std::min<std::size_t>(5, filtered_records.size())),
      mapper.reference());
  std::fputs(sam.str().c_str(), stdout);
  return identical ? 0 : 1;
}
