// Scalar-vs-SIMD equivalence for the batch filtration core.
//
// The contracts asserted here (the per-pair kernel against the reference
// GateKeeperScalar is test_gatekeeper's grid):
//   * the scalar and AVX2 (4-lane + scalar tail) range kernels produce
//     identical PairResult arrays on every block shape, including
//     'N'-bypass pairs and odd group remainders;
//   * the batch SneakySnake kernels — encoded-lane maze build plus the
//     u64 traversal, scalar and AVX2 — are bit-identical to the
//     character-domain SneakySnakeFilter::Filter on every length and
//     candidate-shape block;
//   * FilterBatch on every overriding filter equals its per-pair
//     Filter() on non-bypassed pairs and the bypass slot otherwise;
//   * candidate-shape blocks (encoded genome, strand bits, reference 'N'
//     windows) filter each candidate exactly as GateKeeperScalar filters
//     its oriented read against its genome window, and a window outside
//     the genome bypasses without being read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encode/encoded.hpp"
#include "encode/revcomp.hpp"
#include "filters/gatekeeper.hpp"
#include "filters/pair_block.hpp"
#include "filters/scalar_ref.hpp"
#include "filters/shouji.hpp"
#include "filters/sneakysnake.hpp"
#include "simd/dispatch.hpp"
#include "simd/gatekeeper_batch.hpp"
#include "simd/snake_batch.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

// Lengths chosen to hit every tail-word geometry: 16-base encoded-word
// boundaries, 32-base mask-word boundaries, 64-bit lane boundaries, the
// singleton, the paper's 100 bp, and the library maximum.
constexpr int kLengths[] = {1,  5,   15,  16,  17,  31,  32,  33,
                            47, 63,  64,  65,  99,  100, 127, 128,
                            200, 256, 300, 511, 512};

std::string RandomSeq(Rng& rng, int length) {
  std::string s(static_cast<std::size_t>(length), 'A');
  for (char& c : s) c = kBases[rng.Uniform(4)];
  return s;
}

/// A reference-like partner: mostly the read with a few substitutions, so
/// accept and reject paths both occur; occasionally fully random.
std::string MutatePartner(Rng& rng, const std::string& read, int edits) {
  if (rng.Uniform(4) == 0) return RandomSeq(rng, static_cast<int>(read.size()));
  std::string ref = read;
  for (int k = 0; k < edits; ++k) {
    const std::size_t p = rng.Uniform(ref.size());
    ref[p] = kBases[rng.Uniform(4)];
  }
  return ref;
}

void InjectN(Rng& rng, std::string* s) {
  (*s)[rng.Uniform(s->size())] = 'N';
}

int RandomThreshold(Rng& rng, int length) {
  const int bound = std::min(kMaxErrorThreshold, length - 1);
  return bound <= 0 ? 0 : static_cast<int>(rng.Uniform(
                              static_cast<std::uint64_t>(bound) + 1));
}

void ExpectSameResult(const PairResult& a, const PairResult& b,
                      const char* what, std::size_t i) {
  ASSERT_EQ(a.accept, b.accept) << what << " pair " << i;
  ASSERT_EQ(a.bypassed, b.bypassed) << what << " pair " << i;
  ASSERT_EQ(a.edits, b.edits) << what << " pair " << i;
}

TEST(SimdBatchTest, ScalarAndAvx2RangesBitIdentical) {
  // When dispatch resolves to scalar — kernels not compiled (non-x86
  // build), CPU without AVX2, or the GKGPU_NO_AVX2 escape hatch (the CI
  // forced-scalar job) — the AVX2 leg must not run at all: the point of
  // that job is proving the portable path alone, and on a vector-less
  // machine the call would be illegal anyway.  The real comparison runs
  // on every AVX2-dispatching CI machine.
  if (simd::ActiveLevel() != simd::Level::kAvx2) {
    GTEST_SKIP() << "AVX2 kernels not dispatched on this build/machine";
  }
  Rng rng(90002);
  for (const int length : kLengths) {
    const int e = RandomThreshold(rng, length);
    PairBlockStorage block(length);
    // 23 pairs: five AVX2 groups plus a 3-pair scalar tail; sprinkle 'N'
    // pairs so bypassed lanes mix with live lanes inside one group.
    std::vector<std::string> reads, refs;
    for (int i = 0; i < 23; ++i) {
      std::string read = RandomSeq(rng, length);
      std::string ref = MutatePartner(rng, read, static_cast<int>(
                                                     rng.Uniform(6)));
      if (rng.Uniform(5) == 0) InjectN(rng, rng.Uniform(2) == 0 ? &read : &ref);
      block.Add(read, ref);
      reads.push_back(std::move(read));
      refs.push_back(std::move(ref));
    }
    for (const GateKeeperMode mode :
         {GateKeeperMode::kImproved, GateKeeperMode::kOriginal}) {
      GateKeeperParams params;
      params.mode = mode;
      std::vector<PairResult> scalar(block.size());
      std::vector<PairResult> avx2(block.size());
      simd::GateKeeperFilterRangeScalar(block.view(), 0, block.size(), e,
                                        params, scalar.data());
      simd::GateKeeperFilterRangeAvx2(block.view(), 0, block.size(), e,
                                      params, avx2.data());
      for (std::size_t i = 0; i < block.size(); ++i) {
        ExpectSameResult(avx2[i], scalar[i], "scalar-vs-avx2", i);
      }
    }
  }
}

TEST(SnakeBatchTest, FilterBatchMatchesPerPairFilterOverTheGrid) {
  // The dispatched batch SneakySnake (encoded maze build + u64 traversal,
  // AVX2 lane-parallel where active) against the character-domain
  // per-pair Filter() — decisions and edit estimates both.
  Rng rng(90007);
  const SneakySnakeFilter snake;
  for (const int length : kLengths) {
    for (int trial = 0; trial < 4; ++trial) {
      const int e = RandomThreshold(rng, length);
      PairBlockStorage block(length);
      std::vector<std::string> reads, refs;
      for (int i = 0; i < 23; ++i) {
        std::string read = RandomSeq(rng, length);
        std::string ref = MutatePartner(
            rng, read, static_cast<int>(rng.Uniform(
                           static_cast<std::uint64_t>(e) + 3)));
        if (rng.Uniform(6) == 0) {
          InjectN(rng, rng.Uniform(2) == 0 ? &read : &ref);
        }
        block.Add(read, ref);
        reads.push_back(std::move(read));
        refs.push_back(std::move(ref));
      }
      std::vector<PairResult> results(block.size());
      snake.FilterBatch(block.view(), e, results.data());
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (ContainsUnknown(reads[i]) || ContainsUnknown(refs[i])) {
          EXPECT_EQ(results[i].accept, 1) << "length " << length << " " << i;
          EXPECT_EQ(results[i].bypassed, 1)
              << "length " << length << " " << i;
          continue;
        }
        const FilterResult expected = snake.Filter(reads[i], refs[i], e);
        EXPECT_EQ(results[i].accept, expected.accept ? 1 : 0)
            << "length " << length << " e " << e << " pair " << i;
        EXPECT_EQ(results[i].edits, expected.estimated_edits)
            << "length " << length << " e " << e << " pair " << i;
        EXPECT_EQ(results[i].bypassed, 0) << "length " << length << " " << i;
      }
    }
  }
}

TEST(SnakeBatchTest, ScalarAndAvx2SnakeRangesBitIdentical) {
  // Explicit scalar-vs-AVX2 comparison of the snake range kernels (the
  // grid test above exercises whichever tier dispatch picked).  Only the
  // forced-scalar / non-x86 configurations skip.
  if (simd::ActiveLevel() != simd::Level::kAvx2) {
    GTEST_SKIP() << "AVX2 kernels not dispatched on this build/machine";
  }
  Rng rng(90008);
  for (const int length : kLengths) {
    const int e = RandomThreshold(rng, length);
    PairBlockStorage block(length);
    for (int i = 0; i < 23; ++i) {
      std::string read = RandomSeq(rng, length);
      std::string ref = MutatePartner(rng, read, static_cast<int>(
                                                     rng.Uniform(6)));
      if (rng.Uniform(5) == 0) InjectN(rng, rng.Uniform(2) == 0 ? &read : &ref);
      block.Add(read, ref);
    }
    std::vector<PairResult> scalar(block.size());
    std::vector<PairResult> avx2(block.size());
    simd::SneakySnakeFilterRangeScalar(block.view(), 0, block.size(), e,
                                       scalar.data());
    simd::SneakySnakeFilterRangeAvx2(block.view(), 0, block.size(), e,
                                     avx2.data());
    for (std::size_t i = 0; i < block.size(); ++i) {
      ExpectSameResult(avx2[i], scalar[i], "snake-scalar-vs-avx2", i);
    }
  }
}

TEST(SnakeBatchTest, CandidateBlocksMatchTheScalarRange) {
  // Candidate-shaped blocks (encoded genome windows, strand bits,
  // reference 'N' masks) through the dispatched snake kernel against the
  // portable range — the per-lane window loads feeding the AVX2 maze
  // build.
  Rng rng(90009);
  const int length = 100;
  const int e = 5;
  std::string genome = RandomSeq(rng, 4000);
  for (int i = 1500; i < 1530; ++i) genome[static_cast<std::size_t>(i)] = 'N';
  const ReferenceEncoding ref = EncodeReference(genome);

  const int n_reads = 12;
  std::vector<Word> read_table(static_cast<std::size_t>(n_reads) *
                               static_cast<std::size_t>(EncodedWords(length)));
  std::vector<std::uint8_t> read_has_n(n_reads, 0);
  for (int r = 0; r < n_reads; ++r) {
    std::string s = RandomSeq(rng, length);
    if (r == 5) InjectN(rng, &s);
    read_has_n[static_cast<std::size_t>(r)] =
        EncodeSequence(s, read_table.data() +
                              static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(
                                      EncodedWords(length)))
            ? 1
            : 0;
  }
  std::vector<CandidatePair> candidates;
  for (int i = 0; i < 200; ++i) {
    CandidatePair c;
    c.read_index = static_cast<std::uint32_t>(rng.Uniform(n_reads));
    c.strand = static_cast<std::uint8_t>(rng.Uniform(2));
    c.ref_pos = static_cast<std::int64_t>(
        rng.Uniform(static_cast<std::uint64_t>(genome.size()) - length));
    candidates.push_back(c);
  }
  PairBlock block;
  block.size = candidates.size();
  block.length = length;
  block.words_per_seq = EncodedWords(length);
  block.reads_enc = read_table.data();
  block.bypass = read_has_n.data();
  block.candidates = candidates.data();
  block.ref_words = ref.words.data();
  block.ref_n_mask = ref.n_mask.data();
  block.ref_len = ref.length;

  std::vector<PairResult> dispatched(block.size);
  std::vector<PairResult> scalar(block.size);
  simd::SneakySnakeFilterRange(block, 0, block.size, e, dispatched.data());
  simd::SneakySnakeFilterRangeScalar(block, 0, block.size, e, scalar.data());
  for (std::size_t i = 0; i < block.size; ++i) {
    ExpectSameResult(dispatched[i], scalar[i], "snake-candidate", i);
    if (read_has_n[candidates[i].read_index] != 0 ||
        ref.RangeHasUnknown(candidates[i].ref_pos, length)) {
      EXPECT_EQ(dispatched[i].bypassed, 1) << i;
    } else {
      EXPECT_EQ(dispatched[i].bypassed, 0) << i;
    }
  }
}

TEST(FilterBatchTest, OverridingFiltersMatchTheirScalarReference) {
  Rng rng(90003);
  const GateKeeperFilter gk;
  const GateKeeperFilter gk_fpga(kGateKeeperFpga);
  const ShoujiFilter shouji;
  const SneakySnakeFilter snake;
  struct Case {
    const PreAlignmentFilter* filter;
    bool mark_undefined;  // block builder's bypass policy
  };
  const Case cases[] = {
      {&gk, true},
      // The FPGA baseline has no bypass mechanism: blocks built without
      // bypass bits, 'N' filters as its 'A' substitution — exactly what
      // the scalar Filter() does with bypass_undefined=false.
      {&gk_fpga, false},
      // SHD (`filter --algo shd`): the same filter over blocks that
      // bypass 'N' pairs.
      {&gk_fpga, true},
      {&shouji, true},
      {&snake, true},
  };
  for (const int length : {17, 64, 100, 150}) {
    for (const Case& c : cases) {
      const int e = std::min(8, std::max(0, length / 12));
      PairBlockStorage block(length);
      std::vector<std::string> reads, refs;
      for (int i = 0; i < 40; ++i) {
        std::string read = RandomSeq(rng, length);
        std::string ref = MutatePartner(
            rng, read, static_cast<int>(rng.Uniform(
                           static_cast<std::uint64_t>(e) + 3)));
        if (i % 7 == 0) InjectN(rng, i % 14 == 0 ? &read : &ref);
        block.Add(read, ref, c.mark_undefined);
        reads.push_back(std::move(read));
        refs.push_back(std::move(ref));
      }
      std::vector<PairResult> results(block.size());
      c.filter->FilterBatch(block.view(), e, results.data());
      for (std::size_t i = 0; i < block.size(); ++i) {
        const bool undefined =
            ContainsUnknown(reads[i]) || ContainsUnknown(refs[i]);
        if (c.mark_undefined && undefined) {
          EXPECT_EQ(results[i].accept, 1) << c.filter->name() << " " << i;
          EXPECT_EQ(results[i].bypassed, 1) << c.filter->name() << " " << i;
          continue;
        }
        // Non-bypassed pairs must equal the scalar reference.  Under a
        // no-bypass builder an undefined pair filters on its encoded
        // ('N' -> 'A') form, which is what the FPGA-mode scalar Filter()
        // computes too.
        const FilterResult expected =
            c.filter->Filter(reads[i], refs[i], e);
        EXPECT_EQ(results[i].accept, expected.accept ? 1 : 0)
            << c.filter->name() << " " << i;
        EXPECT_EQ(results[i].bypassed, 0) << c.filter->name() << " " << i;
        EXPECT_EQ(results[i].edits, expected.estimated_edits)
            << c.filter->name() << " " << i;
      }
    }
  }
}

TEST(CandidateBlockTest, WindowsStrandsAndGenomeNMatchPerPairSemantics) {
  Rng rng(90004);
  const int length = 100;
  const int e = 5;
  // A genome with an 'N' patch in the middle: windows overlapping it must
  // bypass, windows elsewhere must filter.
  std::string genome = RandomSeq(rng, 4000);
  for (int i = 1500; i < 1530; ++i) genome[static_cast<std::size_t>(i)] = 'N';
  const ReferenceEncoding ref = EncodeReference(genome);

  const int n_reads = 12;
  std::vector<std::string> reads;
  std::vector<Word> read_table(static_cast<std::size_t>(n_reads) *
                               static_cast<std::size_t>(EncodedWords(length)));
  std::vector<std::uint8_t> read_has_n(n_reads, 0);
  for (int r = 0; r < n_reads; ++r) {
    std::string s = RandomSeq(rng, length);
    if (r == 5) InjectN(rng, &s);
    read_has_n[static_cast<std::size_t>(r)] =
        EncodeSequence(s, read_table.data() +
                              static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(
                                      EncodedWords(length)))
            ? 1
            : 0;
    reads.push_back(std::move(s));
  }

  std::vector<CandidatePair> candidates;
  for (int i = 0; i < 200; ++i) {
    CandidatePair c;
    c.read_index = static_cast<std::uint32_t>(rng.Uniform(n_reads));
    c.strand = static_cast<std::uint8_t>(rng.Uniform(2));
    c.ref_pos = static_cast<std::int64_t>(
        rng.Uniform(static_cast<std::uint64_t>(genome.size()) - length));
    candidates.push_back(c);
  }

  PairBlock block;
  block.size = candidates.size();
  block.length = length;
  block.words_per_seq = EncodedWords(length);
  block.reads_enc = read_table.data();
  block.bypass = read_has_n.data();
  block.candidates = candidates.data();
  block.ref_words = ref.words.data();
  block.ref_n_mask = ref.n_mask.data();
  block.ref_len = ref.length;

  GateKeeperParams params;
  std::vector<PairResult> results(block.size);
  simd::GateKeeperFilterRange(block, 0, block.size, e, params,
                              results.data());

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidatePair c = candidates[i];
    if (read_has_n[c.read_index] != 0 ||
        ref.RangeHasUnknown(c.ref_pos, length)) {
      EXPECT_EQ(results[i].bypassed, 1) << i;
      EXPECT_EQ(results[i].accept, 1) << i;
      continue;
    }
    const std::string& read = reads[c.read_index];
    const FilterResult expected = GateKeeperScalar(
        c.strand != 0 ? ReverseComplement(read) : read,
        std::string_view(genome).substr(static_cast<std::size_t>(c.ref_pos),
                                        static_cast<std::size_t>(length)),
        e, params);
    EXPECT_EQ(results[i].accept, expected.accept ? 1 : 0) << i;
    EXPECT_EQ(results[i].edits, expected.estimated_edits) << i;
    EXPECT_EQ(results[i].bypassed, 0) << i;
  }
}

TEST(CandidateBlockTest, WindowsOutsideTheGenomeBypassWithoutBeingRead) {
  // A window past either end of the genome bypasses like an 'N' window,
  // and no kernel slices it: a slice would read past the encoded genome,
  // which a sanitized build reports.  In-range windows share the 4-lane
  // groups, so the vector kernels load both kinds side by side.
  Rng rng(90010);
  const int length = 100;
  const int e = 5;
  const ReferenceEncoding ref = EncodeReference(RandomSeq(rng, 20000));
  const std::string read = RandomSeq(rng, length);
  const EncodedBatch reads =
      EncodeBatch(std::span<const std::string>(&read, 1), length);
  const std::int64_t past_end = ref.length - length + 1;
  const std::int64_t far_past_end = ref.length + 4096;
  const std::int64_t before_start = -10000;
  const std::int64_t last_valid = ref.length - length;
  std::vector<CandidatePair> candidates;
  for (const int strand : {0, 1}) {
    const std::int64_t in_genome = strand == 0 ? 0 : last_valid;
    for (const std::int64_t pos :
         {in_genome, past_end, far_past_end, before_start}) {
      candidates.push_back({0, static_cast<std::uint8_t>(strand), 0, pos});
    }
  }
  const PairBlock block = CandidateBlock(reads, ref.view(), candidates.data(),
                                         candidates.size());
  const GateKeeperParams params;
  std::vector<PairResult> reference(block.size);
  simd::GateKeeperFilterRangeScalar(block, 0, block.size, e, params,
                                    reference.data());
  std::vector<PairResult> dispatched(block.size);
  simd::GateKeeperFilterRange(block, 0, block.size, e, params,
                              dispatched.data());
  std::vector<PairResult> via_filter(block.size);
  GateKeeperFilter().FilterBatch(block, e, via_filter.data());
  std::vector<PairResult> snake_scalar(block.size);
  simd::SneakySnakeFilterRangeScalar(block, 0, block.size, e,
                                     snake_scalar.data());
  std::vector<PairResult> snake(block.size);
  simd::SneakySnakeFilterRange(block, 0, block.size, e, snake.data());
  for (std::size_t i = 0; i < block.size; ++i) {
    ExpectSameResult(dispatched[i], reference[i], "dispatched", i);
    ExpectSameResult(via_filter[i], reference[i], "FilterBatch", i);
    ExpectSameResult(snake[i], snake_scalar[i], "snake", i);
    const std::int64_t pos = candidates[i].ref_pos;
    const bool outside = pos != 0 && pos != last_valid;
    for (const PairResult& r : {reference[i], snake_scalar[i]}) {
      EXPECT_EQ(r.bypassed, outside ? 1 : 0) << "candidate " << i;
      EXPECT_TRUE(!outside || r.accept == 1) << "candidate " << i;
    }
  }
}

TEST(RawBlockTest, DeviceSideEncodingMatchesHostEncodedBlocks) {
  Rng rng(90005);
  const int length = 100;
  const int e = 4;
  const int n = 30;
  std::string raw_reads, raw_refs;
  PairBlockStorage encoded(length);
  for (int i = 0; i < n; ++i) {
    std::string read = RandomSeq(rng, length);
    std::string ref = MutatePartner(rng, read,
                                    static_cast<int>(rng.Uniform(7)));
    if (i % 9 == 0) InjectN(rng, &read);
    encoded.Add(read, ref);
    raw_reads += read;
    raw_refs += ref;
  }
  PairBlock raw;
  raw.size = n;
  raw.length = length;
  raw.words_per_seq = EncodedWords(length);
  raw.raw_reads = raw_reads.data();
  raw.raw_refs = raw_refs.data();

  GateKeeperParams params;
  std::vector<PairResult> from_raw(n);
  std::vector<PairResult> from_encoded(n);
  simd::GateKeeperFilterRange(raw, 0, raw.size, e, params, from_raw.data());
  simd::GateKeeperFilterRange(encoded.view(), 0, encoded.size(), e, params,
                              from_encoded.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    ExpectSameResult(from_raw[i], from_encoded[i], "raw-vs-encoded", i);
  }
}

}  // namespace
}  // namespace gkgpu
