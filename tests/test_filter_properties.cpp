// Cross-filter property sweeps (TEST_P over filter x length x threshold):
// every pre-alignment filter in the library is checked against the exact
// aligner for the losslessness contract it claims — strict zero false
// rejects for the GateKeeper family (SHD is its FPGA configuration) and
// SneakySnake; bounded tolerance for MAGNET and Shouji (whose algorithms
// are known to shed a small fraction of true positives) — plus decision
// determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "align/myers.hpp"
#include "encode/dna.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/magnet.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

enum class FilterKind {
  kGateKeeperGpu,
  kGateKeeperFpga,  // also SHD
  kMagnet,
  kShouji,
  kSneakySnake,
};

const char* KindName(FilterKind k) {
  switch (k) {
    case FilterKind::kGateKeeperGpu: return "GateKeeperGpu";
    case FilterKind::kGateKeeperFpga: return "GateKeeperFpga";
    case FilterKind::kMagnet: return "Magnet";
    case FilterKind::kShouji: return "Shouji";
    case FilterKind::kSneakySnake: return "SneakySnake";
  }
  return "?";
}

std::unique_ptr<PreAlignmentFilter> MakeFilter(FilterKind k) {
  switch (k) {
    case FilterKind::kGateKeeperGpu:
      return std::make_unique<GateKeeperFilter>();
    case FilterKind::kGateKeeperFpga:
      return std::make_unique<GateKeeperFilter>(kGateKeeperFpga);
    case FilterKind::kMagnet: return std::make_unique<MagnetFilter>();
    case FilterKind::kShouji: return std::make_unique<ShoujiFilter>();
    case FilterKind::kSneakySnake:
      return std::make_unique<SneakySnakeFilter>();
  }
  return nullptr;
}

/// Allowed false rejects per 1000 true positives.
int FalseRejectBudgetPerMille(FilterKind k) {
  switch (k) {
    case FilterKind::kMagnet: return 50;   // the paper observes FRs
    case FilterKind::kShouji: return 10;   // window replacement (shouji.hpp)
    default: return 0;                     // lossless contract
  }
}

using SweepParam = std::tuple<FilterKind, int, int>;  // filter, length, e

class FilterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FilterSweep, LosslessnessContractHolds) {
  const auto [kind, length, e] = GetParam();
  const auto filter = MakeFilter(kind);
  MyersAligner oracle;
  Rng rng(10000 + static_cast<std::uint64_t>(length) * 97 + e);
  int true_positives = 0;
  int false_rejects = 0;
  for (int t = 0; t < 250; ++t) {
    const int edits = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(e) + 2));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.3, rng.NextU64());
    if (oracle.Distance(p.read, p.ref) > e) continue;
    ++true_positives;
    if (!filter->Filter(p.read, p.ref, e).accept) ++false_rejects;
  }
  ASSERT_GT(true_positives, 50);
  EXPECT_LE(false_rejects * 1000,
            FalseRejectBudgetPerMille(kind) * true_positives)
      << KindName(kind) << " length " << length << " e " << e << ": "
      << false_rejects << " FR / " << true_positives << " TP";
}

TEST_P(FilterSweep, DecisionsAreDeterministic) {
  const auto [kind, length, e] = GetParam();
  const auto f1 = MakeFilter(kind);
  const auto f2 = MakeFilter(kind);
  Rng rng(20000 + static_cast<std::uint64_t>(length) * 97 + e);
  for (int t = 0; t < 60; ++t) {
    const SequencePair p = MakePairWithEdits(
        length,
        static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(2 * e) + 3)),
        0.3, rng.NextU64());
    const FilterResult a = f1->Filter(p.read, p.ref, e);
    const FilterResult b = f2->Filter(p.read, p.ref, e);
    const FilterResult c = f1->Filter(p.read, p.ref, e);  // same instance
    ASSERT_EQ(a.accept, b.accept);
    ASSERT_EQ(a.accept, c.accept);
    ASSERT_EQ(a.estimated_edits, c.estimated_edits);
  }
}

TEST_P(FilterSweep, ExactMatchesAlwaysAccepted) {
  const auto [kind, length, e] = GetParam();
  const auto filter = MakeFilter(kind);
  Rng rng(30000 + static_cast<std::uint64_t>(length) * 97 + e);
  for (int t = 0; t < 40; ++t) {
    std::string seq(static_cast<std::size_t>(length), 'A');
    for (auto& ch : seq) ch = kBases[rng.NextU64() & 0x3u];
    ASSERT_TRUE(filter->Filter(seq, seq, e).accept);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFiltersGrid, FilterSweep,
    ::testing::Combine(
        ::testing::Values(FilterKind::kGateKeeperGpu,
                          FilterKind::kGateKeeperFpga, FilterKind::kMagnet,
                          FilterKind::kShouji, FilterKind::kSneakySnake),
        ::testing::Values(100, 150, 250), ::testing::Values(2, 5, 10)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(KindName(std::get<0>(info.param))) + "_L" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace gkgpu
