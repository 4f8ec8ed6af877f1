// Differential filter test harness: every pre-alignment filter in the
// library — the GateKeeper-GPU bit-parallel core, its scalar reference
// implementation, the original FPGA-style GateKeeper (GateKeeper-FPGA and
// SHD), MAGNET, Shouji and SneakySnake — runs against the exact Myers
// edit-distance oracle over a randomized grid of read lengths and error
// thresholds, on substitution-only and indel-rich pair populations.
//
// Contract checked per filter (PreAlignmentFilter::lossless()):
//   * lossless filters must never reject a pair whose oracle distance is
//     within the threshold — zero false rejects, the paper's headline
//     accuracy claim, asserted per pair;
//   * MAGNET and Shouji, whose window extraction/replacement is known to
//     shed a small fraction of true positives, are held to a bounded
//     aggregate false-reject budget instead;
//   * every filter's false-accept rate against the oracle is recorded and
//     reported per threshold (false accepts cost verification time, not
//     correctness — the rate is the filter's quality metric).
//
// Every PreAlignmentFilter case additionally runs through the batch API
// (FilterBatch over a PairBlock — the scalar-or-AVX2 vectorized path for
// GateKeeper, Shouji and SneakySnake, the decode fallback for MAGNET): the
// batch decisions must match the per-pair scalar path bit for bit, so the
// false-reject contracts transfer to the batch path by construction.
//
// Extending for a new filter: register it in MakeCases() (for a
// PreAlignmentFilter subclass one AddFilter line suffices; free-function
// implementations wrap in a lambda) and the grid, the zero-false-reject
// assertion, the batch-equivalence sweep and the false-accept report
// apply unchanged.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "align/myers.hpp"
#include "filters/filter.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/magnet.hpp"
#include "filters/scalar_ref.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr int kLengths[] = {64, 100, 128};
constexpr int kThresholds[] = {0, 2, 5, 8};
constexpr double kIndelFracs[] = {0.0, 0.35};
constexpr int kPairsPerCell = 250;
/// Aggregate false-reject budget for filters without a lossless contract,
/// in false rejects per 1000 true positives across the whole grid (the
/// observed rates sit well under 1%).
constexpr int kBoundedBudgetPerMille = 30;

struct FilterCase {
  std::string name;
  bool lossless = true;
  std::function<FilterResult(std::string_view, std::string_view, int)> run;
  /// Set for PreAlignmentFilter cases: the batch sweep drives FilterBatch
  /// through it (null for free-function reference implementations).
  std::shared_ptr<PreAlignmentFilter> filter;
};

std::vector<FilterCase> MakeCases() {
  std::vector<FilterCase> cases;
  const auto add_filter = [&](std::shared_ptr<PreAlignmentFilter> f) {
    cases.push_back({std::string(f->name()), f->lossless(),
                     [f](std::string_view r, std::string_view g, int e) {
                       return f->Filter(r, g, e);
                     },
                     f});
  };
  add_filter(std::make_shared<GateKeeperFilter>());
  // The scalar reference implementation of the GateKeeper filtration —
  // differential against both the oracle and (by transitivity with
  // test_gatekeeper) the bit-parallel core.
  cases.push_back({"GateKeeperScalar", true,
                   [](std::string_view r, std::string_view g, int e) {
                     return GateKeeperScalar(r, g, e, GateKeeperParams{});
                   },
                   nullptr});
  add_filter(std::make_shared<GateKeeperFilter>(kGateKeeperFpga));
  cases.back().name = "GateKeeperFpga";
  add_filter(std::make_shared<ShoujiFilter>());
  add_filter(std::make_shared<MagnetFilter>());
  add_filter(std::make_shared<SneakySnakeFilter>());
  return cases;
}

/// One grid cell: pairs with their oracle distances, generated once and
/// shared by every filter's sweep.
struct Cell {
  int length = 0;
  int e = 0;
  double indel_frac = 0.0;
  std::vector<SequencePair> pairs;
  std::vector<int> distance;  // Myers oracle
};

const std::vector<Cell>& Grid() {
  static const std::vector<Cell> grid = [] {
    std::vector<Cell> cells;
    MyersAligner oracle;
    for (const int length : kLengths) {
      for (const int e : kThresholds) {
        for (const double indel : kIndelFracs) {
          Cell cell;
          cell.length = length;
          cell.e = e;
          cell.indel_frac = indel;
          Rng rng(40000 + static_cast<std::uint64_t>(length) * 131 +
                  static_cast<std::uint64_t>(e) * 17 +
                  (indel > 0.0 ? 7 : 0));
          for (int t = 0; t < kPairsPerCell; ++t) {
            // Edits straddle the threshold so every cell carries both true
            // positives and true negatives.
            const int edits = static_cast<int>(
                rng.Uniform(static_cast<std::uint64_t>(e) + 4));
            cell.pairs.push_back(
                MakePairWithEdits(length, edits, indel, rng.NextU64()));
            cell.distance.push_back(
                oracle.Distance(cell.pairs.back().read,
                                cell.pairs.back().ref));
          }
          cells.push_back(std::move(cell));
        }
      }
    }
    return cells;
  }();
  return grid;
}

struct SweepCounts {
  std::uint64_t true_positives = 0;
  std::uint64_t false_rejects = 0;
  std::uint64_t true_negatives = 0;
  std::uint64_t false_accepts = 0;
};

const std::vector<FilterCase>& Cases() {
  static const std::vector<FilterCase> cases = MakeCases();
  return cases;
}

class DifferentialSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const FilterCase& Case() { return Cases()[GetParam()]; }
};

TEST_P(DifferentialSweep, FalseRejectContractHolds) {
  const FilterCase& fc = Case();
  SweepCounts total;
  for (const Cell& cell : Grid()) {
    for (std::size_t i = 0; i < cell.pairs.size(); ++i) {
      const SequencePair& p = cell.pairs[i];
      const bool within = cell.distance[i] <= cell.e;
      const bool accepted = fc.run(p.read, p.ref, cell.e).accept;
      if (within) {
        ++total.true_positives;
        if (!accepted) {
          ++total.false_rejects;
          // The paper's lossless contract is per pair — name the witness.
          EXPECT_FALSE(fc.lossless)
              << fc.name << " falsely rejected a pair with oracle distance "
              << cell.distance[i] << " <= e=" << cell.e << " (length "
              << cell.length << ", indel_frac " << cell.indel_frac
              << ", pair " << i << ")";
        }
      } else {
        ++total.true_negatives;
        if (accepted) ++total.false_accepts;
      }
    }
  }
  ASSERT_GT(total.true_positives, 1000u) << "grid lost its true positives";
  ASSERT_GT(total.true_negatives, 1000u) << "grid lost its true negatives";
  if (fc.lossless) {
    EXPECT_EQ(total.false_rejects, 0u) << fc.name;
  } else {
    EXPECT_LE(total.false_rejects * 1000,
              static_cast<std::uint64_t>(kBoundedBudgetPerMille) *
                  total.true_positives)
        << fc.name << ": " << total.false_rejects << " FR / "
        << total.true_positives << " TP";
    EXPECT_GT(total.false_rejects, 0u)
        << fc.name << " declared non-lossless but produced no false "
        << "rejects on the grid — revisit its lossless() contract";
  }
  RecordProperty("false_rejects", static_cast<int>(total.false_rejects));
  RecordProperty(
      "false_accept_per_mille",
      static_cast<int>(total.false_accepts * 1000 /
                       std::max<std::uint64_t>(1, total.true_negatives)));
}

// The batch path of every PreAlignmentFilter case must reproduce the
// scalar path's decisions and edit estimates pair for pair across the
// whole grid — so the FR/FA contracts asserted above transfer verbatim to
// FilterBatch, whichever kernel (scalar uint64 lanes, AVX2, or the decode
// fallback) dispatch selected.
TEST_P(DifferentialSweep, BatchPathMatchesScalarPath) {
  const FilterCase& fc = Case();
  if (fc.filter == nullptr) {
    GTEST_SKIP() << fc.name << " is a free-function reference (no batch API)";
  }
  std::uint64_t compared = 0;
  for (const Cell& cell : Grid()) {
    PairBlockStorage block(cell.length);
    for (const SequencePair& p : cell.pairs) block.Add(p.read, p.ref);
    std::vector<PairResult> results(block.size());
    fc.filter->FilterBatch(block.view(), cell.e, results.data());
    for (std::size_t i = 0; i < cell.pairs.size(); ++i) {
      const SequencePair& p = cell.pairs[i];
      const FilterResult scalar = fc.run(p.read, p.ref, cell.e);
      ASSERT_EQ(results[i].accept, scalar.accept ? 1 : 0)
          << fc.name << " length " << cell.length << " e " << cell.e
          << " pair " << i;
      ASSERT_EQ(results[i].bypassed, 0)
          << fc.name << " pair " << i << " (grid pairs are N-free)";
      ASSERT_EQ(results[i].edits, scalar.estimated_edits)
          << fc.name << " length " << cell.length << " e " << cell.e
          << " pair " << i;
      ++compared;
    }
  }
  ASSERT_GT(compared, 5000u);  // the whole grid really ran
}

// Not an assertion sweep: renders the per-threshold false-accept rates of
// every filter against the oracle, the accuracy table the benches report
// at paper scale.
TEST(DifferentialReport, FalseAcceptRatesByThreshold) {
  std::map<std::string, std::map<int, SweepCounts>> by_filter;
  for (const FilterCase& fc : Cases()) {
    for (const Cell& cell : Grid()) {
      SweepCounts& c = by_filter[fc.name][cell.e];
      for (std::size_t i = 0; i < cell.pairs.size(); ++i) {
        const bool within = cell.distance[i] <= cell.e;
        const bool accepted =
            fc.run(cell.pairs[i].read, cell.pairs[i].ref, cell.e).accept;
        if (within) {
          ++c.true_positives;
          c.false_rejects += accepted ? 0 : 1;
        } else {
          ++c.true_negatives;
          c.false_accepts += accepted ? 1 : 0;
        }
      }
    }
  }
  std::printf("%-18s", "filter");
  for (const int e : kThresholds) std::printf("  FA%%(e=%d)", e);
  std::printf("  FR(total)\n");
  for (const auto& [name, per_e] : by_filter) {
    std::printf("%-18s", name.c_str());
    std::uint64_t fr = 0;
    for (const int e : kThresholds) {
      const SweepCounts& c = per_e.at(e);
      fr += c.false_rejects;
      std::printf("  %8.2f",
                  100.0 * static_cast<double>(c.false_accepts) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, c.true_negatives)));
    }
    std::printf("  %9llu\n", static_cast<unsigned long long>(fr));
    // Every filter must separate: a perfect accept-everything "filter"
    // would show 100% false accepts at every threshold.
    const SweepCounts& strict = per_e.at(0);
    EXPECT_LT(strict.false_accepts, strict.true_negatives)
        << name << " never rejects anything at e=0";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFilters, DifferentialSweep,
    ::testing::Range<std::size_t>(0, Cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = Cases()[info.param].name;
      std::erase_if(name, [](char c) { return !std::isalnum(
                        static_cast<unsigned char>(c)); });
      return name;
    });

}  // namespace
}  // namespace gkgpu
