// Tests for the alignment oracles: Needleman-Wunsch DP, the Myers
// bit-vector (Edlib equivalent), and the mapper's verifier (its Hamming
// path and diagonal-band kernel) — all cross-checked against each other
// on randomized sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "align/myers.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/dna.hpp"
#include "sim/pairgen.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(NwTest, KnownDistances) {
  EXPECT_EQ(NwEditDistance("", ""), 0);
  EXPECT_EQ(NwEditDistance("ACGT", "ACGT"), 0);
  EXPECT_EQ(NwEditDistance("ACGT", ""), 4);
  EXPECT_EQ(NwEditDistance("", "ACGT"), 4);
  EXPECT_EQ(NwEditDistance("ACGT", "AGGT"), 1);   // substitution
  EXPECT_EQ(NwEditDistance("ACGT", "AGT"), 1);    // deletion
  EXPECT_EQ(NwEditDistance("ACGT", "ACCGT"), 1);  // insertion
  EXPECT_EQ(NwEditDistance("kitten", "sitting"), 3);
}

TEST(MyersTest, MatchesNwOnRandomPairs) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t la = rng.Uniform(200) + 1;
    const std::size_t lb = rng.Uniform(200) + 1;
    const std::string a = RandomSeq(rng, la);
    const std::string b = RandomSeq(rng, lb);
    EXPECT_EQ(MyersEditDistance(a, b), NwEditDistance(a, b))
        << "trial " << trial;
  }
}

TEST(MyersTest, MatchesNwOnMutatedPairs) {
  Rng rng(5);
  MyersAligner aligner;
  for (int trial = 0; trial < 200; ++trial) {
    const int length = 64 + static_cast<int>(rng.Uniform(200));
    const int edits = static_cast<int>(rng.Uniform(20));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.3, rng.NextU64());
    EXPECT_EQ(aligner.Distance(p.read, p.ref), NwEditDistance(p.read, p.ref))
        << "trial " << trial;
  }
}

TEST(MyersTest, MultiBlockBoundaries) {
  // Pattern lengths around the 64-bit block boundary.
  Rng rng(7);
  for (const int m : {63, 64, 65, 127, 128, 129, 255, 256, 300}) {
    const std::string a = RandomSeq(rng, static_cast<std::size_t>(m));
    std::string b = a;
    b[static_cast<std::size_t>(m / 2)] =
        a[static_cast<std::size_t>(m / 2)] == 'A' ? 'C' : 'A';
    EXPECT_EQ(MyersEditDistance(a, b), 1) << "m " << m;
    EXPECT_EQ(MyersEditDistance(a, a), 0) << "m " << m;
    const std::string c = RandomSeq(rng, static_cast<std::size_t>(m));
    EXPECT_EQ(MyersEditDistance(a, c), NwEditDistance(a, c)) << "m " << m;
  }
}

TEST(MyersTest, EmptyInputs) {
  EXPECT_EQ(MyersEditDistance("", ""), 0);
  EXPECT_EQ(MyersEditDistance("ACG", ""), 3);
  EXPECT_EQ(MyersEditDistance("", "ACG"), 3);
}

// Every budget the mapper accepts (0 to 52, so both sides of the band
// kernel's limit of 31), then Myers' word boundaries (63, 64) and far
// beyond.
const std::vector<int> kBudgets = [] {
  std::vector<int> budgets(kMaxErrorThreshold + 1);
  std::iota(budgets.begin(), budgets.end(), 0);
  budgets.insert(budgets.end(), {63, 64, 200});
  return budgets;
}();

// Symbol sets the verifier must compare byte for byte: N and lower case
// are distinct symbols, never wildcards; the last set spans the byte
// range from NUL (the value the band kernel's padding starts at) to the
// top of the 256-entry pattern table.
const std::string kAlphabets[] = {"ACGT", "ACGTN", "acgtACGT", "N",
                                  std::string("\0\x01G\x80\xff", 5)};

std::string RandomOver(Rng& rng, int n, const std::string& alphabet) {
  std::string s(static_cast<std::size_t>(n), alphabet[0]);
  for (auto& c : s) c = alphabet[rng.Uniform(alphabet.size())];
  return s;
}

// `s` with `edits` random substitutions, insertions and deletions.
std::string Mutate(Rng& rng, std::string s, int edits,
                   const std::string& alphabet) {
  for (int e = 0; e < edits; ++e) {
    const char c = alphabet[rng.Uniform(alphabet.size())];
    const std::size_t pos = rng.Uniform(s.size() + 1);
    switch (rng.Uniform(3)) {
      case 0:
        if (pos < s.size()) s[pos] = c;
        break;
      case 1:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, c);
        break;
    }
  }
  return s;
}

// `a` with `shift` random symbols inserted at `from` and as many bases
// deleted at `to` (from <= to <= a.size() - shift): the length holds, and
// between the two the alignment runs `shift` diagonals off the main one
// (the other side of it with the roles of a and b swapped).
std::string ShiftBetween(Rng& rng, const std::string& a, std::size_t from,
                         std::size_t to, int shift,
                         const std::string& alphabet) {
  return a.substr(0, from) + RandomOver(rng, shift, alphabet) +
         a.substr(from, to - from) +
         a.substr(to + static_cast<std::size_t>(shift));
}

// Equal-length partners of `a` aimed at budget k, the shapes the band
// kernel must get right: substitutions only; an insertion paired with a
// later deletion, so the path between them runs k or k + 1 diagonals off
// the main one (the band's edge, or just past it, at budgets near 2k);
// and edits in the first and last k + 1 columns.
std::vector<std::string> EqualLengthCases(Rng& rng, const std::string& a, int k,
                                          const std::string& alphabet) {
  const std::size_t m = a.size();
  const auto any = [&] { return alphabet[rng.Uniform(alphabet.size())]; };
  std::vector<std::string> cases;
  std::string subs = a;
  for (auto s = rng.Uniform(static_cast<std::uint64_t>(k) + 4); s > 0; --s) {
    subs[rng.Uniform(m)] = any();
  }
  cases.push_back(std::move(subs));
  for (const int shift : {k, k + 1}) {
    const auto width = static_cast<std::size_t>(shift);
    if (shift == 0 || width > m) continue;
    const std::size_t from = rng.Uniform((m - width) / 4 + 1);
    const std::size_t to = m - width - rng.Uniform((m - width - from) / 4 + 1);
    cases.push_back(ShiftBetween(rng, a, from, to, shift, alphabet));
  }
  const std::size_t edge = std::min(m, static_cast<std::size_t>(k) + 1);
  std::string ends = a;
  if (m >= 2) {
    const std::size_t from = rng.Uniform(edge);
    const std::size_t to = std::max(from, m - 1 - rng.Uniform(edge));
    ends = ShiftBetween(rng, a, from, to, 1, alphabet);
  }
  ends[rng.Uniform(edge)] = any();
  ends[m - 1 - rng.Uniform(edge)] = any();
  cases.push_back(std::move(ends));
  return cases;
}

// The independent oracle: the full NW DP, thresholded at k.
int NwWithin(std::string_view a, std::string_view b, int k) {
  const int d = NwEditDistance(a, b);
  return d <= k ? d : -1;
}

TEST(BandedTest, ExactWithinBandRejectsBeyond) {
  // Every pattern length 1-300 (so 63/64/65, 127/128/129 and the block
  // loop above 128), each against a mutated copy (distances near the
  // budgets, lengths differing by more than small k), an unrelated
  // sequence and the equal-length partners aimed at a budget cycling
  // through 0-52, over every budget and symbol set, in both orders: the
  // Myers oracle and the verifier both equal NW.
  Rng rng(11);
  BandedVerifier verifier;
  for (int length = 1; length <= 300; ++length) {
    const std::string& alphabet =
        kAlphabets[static_cast<std::size_t>(length) % std::size(kAlphabets)];
    const std::string a = RandomOver(rng, length, alphabet);
    const int edits = static_cast<int>(rng.Uniform(length / 4 + 4));
    const int far_length = length + static_cast<int>(rng.Uniform(8));
    const int aim = length % (kMaxErrorThreshold + 1);
    auto partners = EqualLengthCases(rng, a, aim, alphabet);
    partners.push_back(Mutate(rng, a, edits, alphabet));
    partners.push_back(RandomOver(rng, far_length, alphabet));
    for (const std::string& b : partners) {
      const int d = NwEditDistance(a, b);
      for (const int k : kBudgets) {
        const int want = d <= k ? d : -1;
        ASSERT_EQ(BandedEditDistance(a, b, k), want)
            << "m " << a.size() << " n " << b.size() << " k " << k;
        ASSERT_EQ(BandedEditDistance(b, a, k), want)
            << "m " << b.size() << " n " << a.size() << " k " << k;
        ASSERT_EQ(verifier.Distance(a, b, k), want)
            << "m " << a.size() << " n " << b.size() << " k " << k;
        ASSERT_EQ(verifier.Distance(b, a, k), want)
            << "m " << b.size() << " n " << a.size() << " k " << k;
      }
    }
  }
  // Empty strings, and lengths that differ by more than the budget.
  for (const int k : kBudgets) {
    EXPECT_EQ(BandedEditDistance("", "", k), 0) << k;
    for (const int n : {1, 64, 129, 250}) {
      const std::string s = RandomOver(rng, n, kAlphabets[0]);
      EXPECT_EQ(BandedEditDistance(s, "", k), NwWithin(s, "", k)) << k;
      EXPECT_EQ(BandedEditDistance("", s, k), NwWithin("", s, k)) << k;
      const std::string longer =
          s + std::string(static_cast<std::size_t>(k) + 1, 'N');
      EXPECT_EQ(BandedEditDistance(s, longer, k), -1) << k;
      EXPECT_EQ(BandedEditDistance(longer, s, k), -1) << k;
    }
  }
}

TEST(BandedTest, UnequalLengths) {
  EXPECT_EQ(BandedEditDistance("ACGTACGT", "ACGT", 4), 4);
  EXPECT_EQ(BandedEditDistance("ACGTACGT", "ACGT", 3), -1);
  EXPECT_EQ(BandedEditDistance("ACGT", "ACGTACGT", 4), 4);
  EXPECT_EQ(BandedEditDistance("", "AC", 2), 2);
  EXPECT_EQ(BandedEditDistance("AC", "", 2), 2);
  EXPECT_EQ(BandedEditDistance("AC", "", 1), -1);
}

TEST(BandedTest, SubstitutionOnlyPairsStayWithinEditBudget) {
  // A pair built with d substitutions has distance exactly <= d.
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const int length = 100;
    const int edits = static_cast<int>(rng.Uniform(11));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.0, rng.NextU64());
    const int dist = BandedEditDistance(p.read, p.ref, edits);
    EXPECT_GE(dist, 0) << "trial " << trial << " edits " << edits;
    EXPECT_LE(dist, edits) << "trial " << trial;
  }
}

TEST(BandedTest, IndelPairsStayWithinDoubledBudget) {
  // Equal-length windows convert each net indel into an indel plus a
  // trailing boundary edit, so d planted edits bound the distance by 2d.
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    const int edits = 1 + static_cast<int>(rng.Uniform(10));
    const SequencePair p =
        MakePairWithEdits(100, edits, 1.0, rng.NextU64());
    const int dist = BandedEditDistance(p.read, p.ref, 2 * edits);
    EXPECT_GE(dist, 0) << "trial " << trial << " edits " << edits;
    EXPECT_LE(dist, 2 * edits) << "trial " << trial;
  }
}

TEST(BandedTest, AgreesWithMyersWithinThreshold) {
  // Read-like pairs (up to 29 random edits, and the equal-length partners
  // aimed at a random budget up to 52) at the block-boundary lengths: the
  // verifier, the thresholded and the exact Myers entry points all agree
  // with the NW oracle.
  Rng rng(17);
  MyersAligner aligner;
  BandedVerifier verifier;
  for (const int length : {1, 2, 63, 64, 65, 100, 127, 128, 129, 150, 300}) {
    for (int trial = 0; trial < 40; ++trial) {
      const int edits = static_cast<int>(rng.Uniform(30));
      const std::string& alphabet =
          kAlphabets[static_cast<std::size_t>(trial) % std::size(kAlphabets)];
      const std::string a = RandomOver(rng, length, alphabet);
      const int aim = static_cast<int>(rng.Uniform(kMaxErrorThreshold + 1));
      auto partners = EqualLengthCases(rng, a, aim, alphabet);
      partners.push_back(Mutate(rng, a, edits, alphabet));
      for (const std::string& b : partners) {
        const int exact = NwEditDistance(a, b);
        ASSERT_EQ(aligner.Distance(a, b), exact)
            << "length " << length << " trial " << trial;
        for (const int k : kBudgets) {
          const int want = exact <= k ? exact : -1;
          ASSERT_EQ(BandedEditDistance(a, b, k), want)
              << "length " << length << " trial " << trial << " k " << k;
          ASSERT_EQ(aligner.DistanceWithin(a, b, k), want)
              << "length " << length << " trial " << trial << " k " << k;
          ASSERT_EQ(verifier.Distance(a, b, k), want)
              << "length " << length << " trial " << trial << " k " << k;
        }
      }
    }
  }
}

TEST(BandedTest, HammingPathBoundaries) {
  // Equal lengths with at most two mismatches return the Hamming distance
  // without a DP; three mismatches can hide a distance of two (a deletion
  // and an insertion), and a shifted tandem repeat hides it behind 80.
  BandedVerifier verifier;
  const std::string a = "TTACGTACGGATCCAT";
  for (int h = 0; h <= 3; ++h) {
    std::string b = a;
    for (int i = 0; i < h; ++i) {
      const auto pos = static_cast<std::size_t>(5 * i + 2);
      b[pos] = b[pos] == 'A' ? 'C' : 'A';
    }
    ASSERT_EQ(NwEditDistance(a, b), h);
    for (int k = 0; k <= h + 2; ++k) {
      EXPECT_EQ(verifier.Distance(a, b, k), k >= h ? h : -1)
          << "h " << h << " k " << k;
    }
  }
  // A deletion at offset 2 and an insertion at offset 4: three mismatches.
  const std::string shifted = "TTCGATACGGATCCAT";
  ASSERT_EQ(HammingWithin(a, shifted, 16), 3);
  ASSERT_EQ(NwEditDistance(a, shifted), 2);
  std::string repeat;
  while (repeat.size() < 101) repeat += "ACGTT";
  const std::string read = repeat.substr(1, 100);
  const std::string ref = repeat.substr(0, 100);
  ASSERT_EQ(HammingWithin(read, ref, 100), 80);
  for (const auto& [x, y] : {std::pair{a, shifted}, std::pair{read, ref}}) {
    for (int k = 0; k <= 4; ++k) {
      EXPECT_EQ(verifier.Distance(x, y, k), k >= 2 ? 2 : -1)
          << x << " " << y << " k " << k;
      EXPECT_EQ(verifier.Distance(y, x, k), k >= 2 ? 2 : -1)
          << y << " " << x << " k " << k;
    }
  }
}

TEST(BandedTest, HammingWithinIsExactUpToItsLimit) {
  // Lengths around the 16-byte compares: the count is exact up to the
  // limit, and past it only known to exceed the limit.
  Rng rng(37);
  for (const int length : {0, 1, 15, 16, 17, 31, 32, 33, 100, 300}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::string a = RandomOver(rng, length, kAlphabets[4]);
      std::string b = a;
      for (auto s = rng.Uniform(8); s > 0 && length > 0; --s) {
        const auto pos = rng.Uniform(static_cast<std::uint64_t>(length));
        b[pos] = static_cast<char>(b[pos] ^ 0x40);
      }
      int h = 0;
      for (std::size_t i = 0; i < a.size(); ++i) h += a[i] != b[i] ? 1 : 0;
      for (int limit = 0; limit <= h + 2; ++limit) {
        const int got = HammingWithin(a, b, limit);
        if (h <= limit) {
          EXPECT_EQ(got, h) << "length " << length << " limit " << limit;
        } else {
          EXPECT_GT(got, limit) << "length " << length << " limit " << limit;
        }
      }
    }
  }
}

TEST(BandedTest, ReusedVerifierMatchesFreshInstance) {
  // One verifier across alternating pattern lengths (one word, two words,
  // the block loop, empty), symbol sets and budgets: any pattern-table
  // bit a previous call left behind would change a later distance.
  Rng rng(19);
  BandedVerifier reused;
  // 11 lengths against 5 symbol sets: every pairing recurs.
  const int lengths[] = {300, 7, 129, 64, 1, 200, 65, 128, 33, 0, 256};
  for (std::size_t trial = 0; trial < 660; ++trial) {
    const std::string& alphabet = kAlphabets[trial % std::size(kAlphabets)];
    const int length = lengths[trial % std::size(lengths)];
    const std::string a = RandomOver(rng, length, alphabet);
    const int edits = static_cast<int>(rng.Uniform(12));
    const std::string b = rng.Uniform(2) == 0
                              ? Mutate(rng, a, edits, alphabet)
                              : RandomOver(rng, length, alphabet);
    const int k = kBudgets[rng.Uniform(std::size(kBudgets))];
    BandedVerifier fresh;
    ASSERT_EQ(reused.Distance(a, b, k), fresh.Distance(a, b, k))
        << "trial " << trial << " m " << a.size() << " n " << b.size()
        << " k " << k;
  }
}

// Full-matrix reference for LocalAligner::BestFit: identical recurrence,
// poisoning and tie-breaking, but every row sweeps all n columns of a
// freshly kInf-cleared matrix.  The production aligner's live band
// must be invisible — same edits, placement, multiplicity and CIGAR.
LocalAlignment ReferenceBestFit(std::string_view read, std::string_view ref,
                                int max_edits, std::int64_t max_begin) {
  constexpr int kInf = 1 << 29;
  if (max_edits < 0) return {};
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  std::vector<int> dp(static_cast<std::size_t>(m + 1) * stride, kInf);
  auto at = [&](int i, int j) -> int& {
    return dp[static_cast<std::size_t>(i) * stride +
              static_cast<std::size_t>(j)];
  };
  const int begin_limit =
      max_begin < 0 ? n
                    : static_cast<int>(std::min<std::int64_t>(n, max_begin));
  for (int j = 0; j <= begin_limit; ++j) at(0, j) = 0;
  for (int i = 1; i <= m; ++i) {
    const int j_lo = std::max(0, i - max_edits);
    if (j_lo == 0) at(i, 0) = i;
    for (int j = std::max(1, j_lo); j <= n; ++j) {
      int v = kInf;
      if (at(i - 1, j - 1) < kInf) {
        const int cost = read[static_cast<std::size_t>(i - 1)] ==
                                 ref[static_cast<std::size_t>(j - 1)]
                             ? 0
                             : 1;
        v = std::min(v, at(i - 1, j - 1) + cost);
      }
      if (at(i - 1, j) < kInf) v = std::min(v, at(i - 1, j) + 1);
      if (at(i, j - 1) < kInf) v = std::min(v, at(i, j - 1) + 1);
      at(i, j) = v > max_edits ? kInf : v;
    }
  }
  int best_j = -1;
  int best = kInf;
  for (int j = 0; j <= n; ++j) {
    if (at(m, j) < best) {
      best = at(m, j);
      best_j = j;
    }
  }
  if (best_j < 0 || best > max_edits) return {};
  LocalAlignment result;
  result.edits = best;
  int last_tied = -1;
  for (int j = 0; j <= n; ++j) {
    if (at(m, j) != best) continue;
    if (last_tied < 0 || j - last_tied > std::max(1, max_edits)) {
      ++result.placements;
    }
    last_tied = j;
  }
  std::string ops;
  int i = m;
  int j = best_j;
  while (i > 0) {
    const int cur = at(i, j);
    if (j > 0 && at(i - 1, j - 1) < kInf) {
      const int cost = read[static_cast<std::size_t>(i - 1)] ==
                               ref[static_cast<std::size_t>(j - 1)]
                           ? 0
                           : 1;
      if (at(i - 1, j - 1) + cost == cur) {
        ops.push_back('M');
        --i;
        --j;
        continue;
      }
    }
    if (at(i - 1, j) < kInf && at(i - 1, j) + 1 == cur) {
      ops.push_back('I');
      --i;
      continue;
    }
    ops.push_back('D');
    --j;
  }
  std::reverse(ops.begin(), ops.end());
  result.ref_begin = j;
  result.ref_span = best_j - j;
  result.cigar = CompressCigarOps(ops);
  return result;
}

void ExpectSameFit(const LocalAlignment& got, const LocalAlignment& want,
                   const std::string& label) {
  EXPECT_EQ(got.edits, want.edits) << label;
  EXPECT_EQ(got.ref_begin, want.ref_begin) << label;
  EXPECT_EQ(got.ref_span, want.ref_span) << label;
  EXPECT_EQ(got.placements, want.placements) << label;
  EXPECT_EQ(got.cigar, want.cigar) << label;
}

TEST(BestFitBandTest, MatchesFullMatrixOnRandomizedGrid) {
  // One aligner reused across every call: the band rewrites only its own
  // span per call, so any unwritten-cell read would surface as a
  // divergence from the always-fresh reference matrix.
  Rng rng(23);
  LocalAligner aligner;
  for (int trial = 0; trial < 250; ++trial) {
    const int m = 20 + static_cast<int>(rng.Uniform(80));
    const int n = m + static_cast<int>(rng.Uniform(220));
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    // Plant the read somewhere in the window, then mutate it.
    const int offset = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(n - m) + 1));
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m));
    const int planted = static_cast<int>(rng.Uniform(6));
    for (int e = 0; e < planted; ++e) {
      const std::size_t pos = rng.Uniform(static_cast<std::uint64_t>(m));
      switch (rng.Uniform(3)) {
        case 0:  // substitution
          read[pos] = read[pos] == 'A' ? 'C' : 'A';
          break;
        case 1:  // deletion from the read
          read.erase(pos, 1);
          break;
        default:  // insertion into the read
          read.insert(pos, 1, kBases[rng.NextU64() & 0x3u]);
          break;
      }
    }
    const int max_edits = static_cast<int>(rng.Uniform(11));
    // Mix begin geometries: unrestricted, tight around the planted
    // offset, and degenerate (column 0 only).
    const std::int64_t max_begins[] = {-1, offset, offset + max_edits, 0,
                                       n};
    const std::int64_t max_begin =
        max_begins[rng.Uniform(5)];
    const std::string label = "trial " + std::to_string(trial) + " m " +
                              std::to_string(read.size()) + " n " +
                              std::to_string(n) + " e " +
                              std::to_string(max_edits) + " b " +
                              std::to_string(max_begin);
    ExpectSameFit(aligner.BestFit(read, ref, max_edits, max_begin),
                  ReferenceBestFit(read, ref, max_edits, max_begin), label);
  }
}

TEST(BestFitBandTest, MatchesFullMatrixOnLowComplexityWindows) {
  // Where the live band is widest and most at risk: on A, AC and ACGTN
  // windows many cells stay within the budget, so live spans run long,
  // hold dead islands and end in deletion chains.  Windows of 0-700
  // bases, budgets 0-15, reads planted from the window (mutated) or
  // drawn at random, and every begin bound (unset, inside the window,
  // past its end) on one reused aligner.
  const std::string alphabets[] = {"A", "AC", "ACGTN"};
  Rng rng(37);
  LocalAligner aligner;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::string& alphabet = alphabets[trial % 3];
    const int n = static_cast<int>(rng.Uniform(701));
    const std::string ref = RandomOver(rng, n, alphabet);
    const int max_edits = static_cast<int>(rng.Uniform(16));
    int m = 1 + static_cast<int>(rng.Uniform(100));
    std::string read;
    if (m <= n && rng.Uniform(4) != 0) {
      const std::size_t offset = rng.Uniform(n - m + 1u);
      const int planted = static_cast<int>(rng.Uniform(max_edits + 3u));
      read = Mutate(rng, ref.substr(offset, static_cast<std::size_t>(m)),
                    planted, alphabet);
    } else {
      read = RandomOver(rng, m, alphabet);
    }
    m = static_cast<int>(read.size());
    const auto inside = static_cast<std::int64_t>(rng.Uniform(n + 1u));
    const auto past = n + 1 + static_cast<std::int64_t>(rng.Uniform(50));
    const std::int64_t max_begins[] = {-1, inside, past};
    const std::int64_t max_begin = max_begins[rng.Uniform(3)];
    const std::string label = "trial " + std::to_string(trial) + " m " +
                              std::to_string(m) + " n " + std::to_string(n) +
                              " e " + std::to_string(max_edits) + " b " +
                              std::to_string(max_begin);
    ExpectSameFit(aligner.BestFit(read, ref, max_edits, max_begin),
                  ReferenceBestFit(read, ref, max_edits, max_begin), label);
  }
}

TEST(BestFitBandTest, IndelsAtTheBandEdgesAreNotClipped) {
  // Rescue-like geometry: the true placement sits at the far right of the
  // band (start == max_begin) and carries reference-consuming deletions,
  // so its path rides the band's upper boundary.  Clipping any row would
  // lose it.
  Rng rng(29);
  LocalAligner aligner;
  for (const int dels : {1, 2, 3, 4}) {
    const int m = 60;
    const int n = 400;
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int offset = n - m - dels;  // flush against the window's end
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m + dels));
    // Delete `dels` spread-out read bases so the placement spans
    // m + dels reference columns — the widest admissible drift.
    for (int d = 0; d < dels; ++d) {
      read.erase(static_cast<std::size_t>((d + 1) * m / (dels + 1)), 1);
    }
    const LocalAlignment got =
        aligner.BestFit(read, ref, dels, /*max_begin=*/offset);
    ASSERT_EQ(got.edits, dels) << "dels " << dels;
    EXPECT_EQ(got.ref_begin, offset) << "dels " << dels;
    EXPECT_EQ(got.ref_span, m + dels) << "dels " << dels;
    ExpectSameFit(got, ReferenceBestFit(read, ref, dels, offset),
                  "dels " + std::to_string(dels));
  }
}

TEST(BestFitBandTest, ShrinkingWindowsReuseTheMatrixSafely) {
  // Alternate large and small problems on one aligner so the small calls
  // run inside a matrix still holding the large calls' values.
  Rng rng(31);
  LocalAligner aligner;
  for (int trial = 0; trial < 40; ++trial) {
    const bool large = (trial % 2) == 0;
    const int n = large ? 600 : 40;
    const int m = large ? 100 : 24;
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int offset =
        static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(n - m) + 1));
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m));
    read[static_cast<std::size_t>(m / 2)] =
        read[static_cast<std::size_t>(m / 2)] == 'G' ? 'T' : 'G';
    const int max_edits = 4;
    ExpectSameFit(aligner.BestFit(read, ref, max_edits, -1),
                  ReferenceBestFit(read, ref, max_edits, -1),
                  "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace gkgpu
