// Compares all six pre-alignment filters of the paper's Sec. 5.1.2 on one
// generated candidate set: false accepts, false rejects, true rejects and
// wall time per filter, against the exact-alignment ground truth.
// GateKeeper-FPGA and SHD are one configuration of the GateKeeper mask
// pipeline (kGateKeeperFpga), so their rows run one filter.
//
//   $ ./filter_comparison [pairs] [length] [e]
//
// Defaults: 20,000 pairs, 100 bp, e = 5.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "align/banded.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/magnet.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "sim/pairgen.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gkgpu;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const int length = argc > 2 ? std::atoi(argv[2]) : 100;
  const int e = argc > 3 ? std::atoi(argv[3]) : 5;

  std::printf("Generating %zu mrFAST-profile pairs (%d bp, e = %d)...\n", n,
              length, e);
  const auto pairs = GeneratePairs(n, MrFastCandidateProfile(length), 42);

  // Ground truth, as the paper does: exact edit distance, accept iff <= e.
  std::vector<bool> truth(n);
  std::size_t true_accepts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = WithinEditDistance(pairs[i].read, pairs[i].ref, e);
    true_accepts += truth[i];
  }
  std::printf("ground truth: %zu accepts, %zu rejects\n\n", true_accepts,
              n - true_accepts);

  const GateKeeperFilter gk_gpu;
  const GateKeeperFilter gk_fpga(kGateKeeperFpga);
  const MagnetFilter magnet;
  const ShoujiFilter shouji;
  const SneakySnakeFilter snake;
  const std::pair<const char*, const PreAlignmentFilter*> filters[] = {
      {"GateKeeper-GPU", &gk_gpu}, {"GateKeeper-FPGA", &gk_fpga},
      {"SHD", &gk_fpga},           {"MAGNET", &magnet},
      {"Shouji", &shouji},         {"SneakySnake", &snake},
  };

  TablePrinter table({"filter", "false accepts", "false rejects",
                      "true rejects", "FA rate", "time (s)"});
  for (const auto& [label, filter] : filters) {
    std::size_t fa = 0;
    std::size_t fr = 0;
    std::size_t tr = 0;
    WallTimer timer;
    for (std::size_t i = 0; i < n; ++i) {
      const bool accept = filter->Filter(pairs[i].read, pairs[i].ref, e).accept;
      if (accept && !truth[i]) ++fa;
      if (!accept && truth[i]) ++fr;
      if (!accept && !truth[i]) ++tr;
    }
    const double secs = timer.Seconds();
    const std::size_t rejects = n - true_accepts;
    table.AddRow({label, TablePrinter::Count(fa),
                  TablePrinter::Count(fr), TablePrinter::Count(tr),
                  TablePrinter::Percent(
                      rejects ? 100.0 * static_cast<double>(fa) /
                                    static_cast<double>(rejects)
                              : 0.0),
                  TablePrinter::Num(secs, 3)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected ordering (paper Fig. 5): SneakySnake & MAGNET lowest FA,\n"
      "then Shouji, then GateKeeper-GPU, then GateKeeper-FPGA = SHD.\n"
      "MAGNET (and rarely Shouji) may show false rejects.\n");
  return 0;
}
