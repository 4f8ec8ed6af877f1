// Ablation bench for the GateKeeper kernel's two accuracy choices, both
// run through GateKeeperFilter::Filter (the scalar 64-bit pipeline):
//   1. the leading/trailing edge fix (the paper's accuracy contribution) —
//      improved vs original false accepts across thresholds;
//   2. error-count semantics — run counting (shipping) vs raw popcount,
//      measuring false accepts AND false rejects (popcount counts the bits
//      amendment inflates, so it trades false accepts for false rejects —
//      the paper's zero-false-reject property only holds for run counting).
//
// Scale with GKGPU_PAIRS (default 30,000).
#include <cstdio>
#include <iostream>

#include "align/banded.hpp"
#include "common.hpp"
#include "util/table.hpp"

using namespace gkgpu;
using namespace gkgpu::bench;

namespace {

struct Counts {
  std::size_t fa = 0;
  std::size_t fr = 0;
};

Counts Evaluate(const Dataset& data, int e, const GateKeeperParams& params) {
  GateKeeperFilter filter(params);
  Counts c;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool accept = filter.Filter(data.reads[i], data.refs[i], e).accept;
    const bool truth = WithinEditDistance(data.reads[i], data.refs[i], e);
    if (accept && !truth) ++c.fa;
    if (!accept && truth) ++c.fr;
  }
  return c;
}

}  // namespace

int main() {
  const std::size_t n = EnvSize("GKGPU_PAIRS", 30000);
  const int length = 100;
  const Dataset data = MakeDataset(LowEditProfile(length), n, 1234);
  std::printf("=== Ablations (low-edit 100bp set, %zu pairs) ===\n", n);

  {
    std::printf("\n-- Ablation 1: leading/trailing edge fix --\n");
    TablePrinter table({"e", "improved FA", "original FA", "ratio",
                        "improved FR", "original FR"});
    for (const int e : {1, 2, 4, 6, 8, 10}) {
      GateKeeperParams improved;
      GateKeeperParams original;
      original.mode = GateKeeperMode::kOriginal;
      const Counts ci = Evaluate(data, e, improved);
      const Counts co = Evaluate(data, e, original);
      table.AddRow({std::to_string(e), TablePrinter::Count(ci.fa),
                    TablePrinter::Count(co.fa),
                    TablePrinter::Num(ci.fa > 0 ? static_cast<double>(co.fa) /
                                                      static_cast<double>(ci.fa)
                                                : 0.0,
                                      2),
                    TablePrinter::Count(ci.fr), TablePrinter::Count(co.fr)});
    }
    table.Print(std::cout);
  }

  {
    std::printf("\n-- Ablation 2: error-count semantics --\n");
    TablePrinter table(
        {"e", "run-count FA", "run-count FR", "popcount FA", "popcount FR"});
    for (const int e : {2, 5, 8}) {
      GateKeeperParams runs;
      GateKeeperParams pop;
      pop.count = CountMode::kPopcount;
      const Counts cr = Evaluate(data, e, runs);
      const Counts cp = Evaluate(data, e, pop);
      table.AddRow({std::to_string(e), TablePrinter::Count(cr.fa),
                    TablePrinter::Count(cr.fr), TablePrinter::Count(cp.fa),
                    TablePrinter::Count(cp.fr)});
    }
    table.Print(std::cout);
    std::printf("(run counting must show FR = 0; popcount trades FA for FR)\n");
  }
  return 0;
}
