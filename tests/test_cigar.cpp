// Tests for banded alignment with traceback: CIGAR strings must span both
// sequences exactly, imply the reported edit count, and the distance must
// agree with the traceback-free verifier on randomized sweeps.
#include "align/cigar.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "align/banded.hpp"
#include "align/myers.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/dna.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

TEST(CigarTest, ExactMatchIsAllM) {
  const Alignment a = BandedAlign("ACGTACGT", "ACGTACGT", 2);
  EXPECT_EQ(a.distance, 0);
  EXPECT_EQ(a.cigar, "8M");
}

TEST(CigarTest, SubstitutionStaysM) {
  const Alignment a = BandedAlign("ACGTACGT", "ACGAACGT", 2);
  EXPECT_EQ(a.distance, 1);
  EXPECT_EQ(a.cigar, "8M");  // M covers mismatches in SAM
}

TEST(CigarTest, InsertionAndDeletion) {
  // read has an extra base relative to ref -> one I.
  const Alignment ins = BandedAlign("ACGGT", "ACGT", 2);
  EXPECT_EQ(ins.distance, 1);
  EXPECT_EQ(CigarEdits("ACGGT", "ACGT", ins.cigar), 1);
  EXPECT_NE(ins.cigar.find('I'), std::string::npos);
  // ref has an extra base -> one D.
  const Alignment del = BandedAlign("ACGT", "ACGGT", 2);
  EXPECT_EQ(del.distance, 1);
  EXPECT_EQ(CigarEdits("ACGT", "ACGGT", del.cigar), 1);
  EXPECT_NE(del.cigar.find('D'), std::string::npos);
}

TEST(CigarTest, BeyondBandReturnsEmpty) {
  const Alignment a = BandedAlign("AAAA", "TTTT", 2);
  EXPECT_EQ(a.distance, -1);
  EXPECT_TRUE(a.cigar.empty());
}

TEST(CigarTest, DistanceMatchesBandedVerifierOnSweep) {
  Rng rng(7);
  for (int t = 0; t < 400; ++t) {
    const int length = 20 + static_cast<int>(rng.Uniform(200));
    const int edits = static_cast<int>(rng.Uniform(12));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.4, rng.NextU64());
    const int k = 2 * edits + 2;
    const int expected = BandedEditDistance(p.read, p.ref, k);
    const Alignment a = BandedAlign(p.read, p.ref, k);
    ASSERT_EQ(a.distance, expected) << "trial " << t;
    if (expected >= 0) {
      // The CIGAR must span both sequences and imply exactly the distance
      // (unit costs: an optimal alignment has edits == distance).
      ASSERT_EQ(CigarEdits(p.read, p.ref, a.cigar), expected)
          << "trial " << t << " cigar " << a.cigar;
    }
  }
}

TEST(CigarTest, UnequalLengths) {
  Rng rng(11);
  for (int t = 0; t < 100; ++t) {
    const std::string a = [&] {
      std::string s(40 + rng.Uniform(40), 'A');
      for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
      return s;
    }();
    std::string b = a;
    b.erase(rng.Uniform(b.size()), 1 + rng.Uniform(3));
    const int d = NwEditDistance(a, b);
    const Alignment aln = BandedAlign(a, b, d);
    ASSERT_EQ(aln.distance, d) << t;
    ASSERT_EQ(CigarEdits(a, b, aln.cigar), d) << t;
  }
}

int Hamming(std::string_view a, std::string_view b) {
  int h = 0;
  for (std::size_t i = 0; i < a.size(); ++i) h += a[i] != b[i] ? 1 : 0;
  return h;
}

TEST(CigarTest, CigarForMatchesBandedAlign) {
  // CigarFor at the confirmed distance must be byte-identical to the
  // BandedAlign traceback, whether it takes the all-M fast path
  // (Hamming == distance) or falls back to the DP (Hamming > distance).
  Rng rng(13);
  int fast = 0;
  int fallback = 0;
  for (int t = 0; t < 600; ++t) {
    const int length = 20 + static_cast<int>(rng.Uniform(200));
    const int edits = static_cast<int>(rng.Uniform(12));
    // Even trials: substitutions only; odd trials: indels only.
    const SequencePair p = MakePairWithEdits(
        length, edits, t % 2 == 0 ? 0.0 : 1.0, rng.NextU64());
    const int d = NwEditDistance(p.read, p.ref);
    ASSERT_EQ(p.read.size(), p.ref.size());
    const Alignment aln = BandedAlign(p.read, p.ref, d);
    ASSERT_EQ(aln.distance, d) << "trial " << t;
    ASSERT_EQ(CigarFor(p.read, p.ref, d), aln.cigar)
        << "trial " << t << " d " << d;
    (Hamming(p.read, p.ref) == d ? fast : fallback) += 1;
  }
  EXPECT_GT(fast, 100);
  EXPECT_GT(fallback, 100);
}

// Equal-length pairs of every shape CigarFor routes: a random read of
// 1-512 bases over a small alphabet (ties abound on AC and A, and 'N' is a
// symbol like any other), then 0-40 planted substitutions, insertions and
// deletions, with the reference cut or padded back to the read's length.
// Each pair's CIGAR must equal the BandedAlign traceback at its exact
// distance, whichever path produced it: the Hamming count (all-M), the
// diagonal-transition traceback (d <= 31) or BandedAlign itself (d > 31).
TEST(CigarTest, TracebackMatchesBandedAlignOnHardPairs) {
  const std::string alphabets[] = {"ACGT", "AC", "A", "ACGTN"};
  Rng rng(17);
  MyersAligner myers;
  int hamming = 0;
  int traceback = 0;
  int fallback = 0;
  for (int t = 0; t < 20000; ++t) {
    const std::string& alphabet = alphabets[t % 4];
    const auto any = [&] { return alphabet[rng.Uniform(alphabet.size())]; };
    // Short reads are common (every budget fits them), long ones rarer.
    const int length = t % 8 == 0 ? 1 + static_cast<int>(rng.Uniform(512))
                                  : 1 + static_cast<int>(rng.Uniform(160));
    std::string read(static_cast<std::size_t>(length), 'A');
    for (char& c : read) c = any();
    std::string ref = read;
    for (int e = static_cast<int>(rng.Uniform(41)); e > 0; --e) {
      const std::size_t pos = rng.Uniform(ref.size() + 1);
      switch (rng.Uniform(3)) {
        case 0:
          if (pos < ref.size()) ref[pos] = any();
          break;
        case 1:
          if (pos < ref.size()) ref.erase(pos, 1);
          break;
        default:
          ref.insert(pos, 1, any());
          break;
      }
    }
    ref.resize(read.size(), any());
    const int d = myers.Distance(read, ref);
    const Alignment aln = BandedAlign(read, ref, d);
    ASSERT_EQ(aln.distance, d) << "trial " << t;
    ASSERT_EQ(CigarFor(read, ref, d), aln.cigar)
        << "trial " << t << " length " << length << " d " << d;
    if (Hamming(read, ref) == d) {
      ++hamming;
    } else {
      (d <= 31 ? traceback : fallback) += 1;
    }
  }
  EXPECT_GT(hamming, 0);
  EXPECT_GT(traceback, 0);
  EXPECT_GT(fallback, 0);
}

TEST(CigarTest, CigarForShiftedRepeatTakesTheDp) {
  // A tandem repeat against itself shifted by one base: four columns in
  // five mismatch, yet one deletion plus one insertion align it, so the
  // distance (2) is far below the Hamming distance (80) and only the DP
  // fallback yields the right CIGAR.
  std::string repeat;
  while (repeat.size() < 101) repeat += "ACGTT";
  const std::string read = repeat.substr(1, 100);
  const std::string ref = repeat.substr(0, 100);
  const int d = NwEditDistance(read, ref);
  ASSERT_EQ(d, 2);
  ASSERT_GT(Hamming(read, ref), d);
  const std::string cigar = CigarFor(read, ref, d);
  EXPECT_EQ(cigar, BandedAlign(read, ref, d).cigar);
  EXPECT_NE(cigar, "100M");
  EXPECT_EQ(CigarEdits(read, ref, cigar), d);
}

TEST(CigarTest, CigarForEdgeCases) {
  // A distance below the true one fits no alignment, so the record keeps
  // the bare match run; an empty read keeps BandedAlign's empty CIGAR.
  EXPECT_EQ(CigarFor("AAAA", "TTTT", 2), "4M");
  EXPECT_EQ(CigarFor("", "", 0), BandedAlign("", "", 0).cigar);
}

TEST(CigarTest, CigarEditsRejectsMalformed) {
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "3M"), -1);    // doesn't span
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "5M"), -1);    // overruns
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "4X"), -1);    // unknown op
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "M"), -1);     // missing count
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "4M"), 0);
}

}  // namespace
}  // namespace gkgpu
