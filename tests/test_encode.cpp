// Tests for 2-bit encoding, batch encoding, reference encoding with 'N'
// masks, and arbitrary-offset segment extraction.
#include "encode/encoded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "sim/genome.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(DnaTest, CodesMatchGateKeeperEncoding) {
  EXPECT_EQ(BaseToCode('A'), 0u);
  EXPECT_EQ(BaseToCode('C'), 1u);
  EXPECT_EQ(BaseToCode('G'), 2u);
  EXPECT_EQ(BaseToCode('T'), 3u);
  EXPECT_EQ(BaseToCode('a'), 0u);
  EXPECT_EQ(BaseToCode('N'), 4u);
  EXPECT_EQ(BaseToCode('x'), 4u);
  EXPECT_TRUE(ContainsUnknown("ACGTN"));
  EXPECT_FALSE(ContainsUnknown("ACGT"));
}

TEST(DnaTest, EncodeKmerMatchesBaseToCodeOnEveryByte) {
  // Each byte value in every position of a 5-mer: the code is the
  // BaseToCode fold, or -1 wherever the byte has no 2-bit code.
  for (int c = 0; c < 256; ++c) {
    for (int at = 0; at < 5; ++at) {
      std::string kmer = "GATCA";
      kmer[static_cast<std::size_t>(at)] = static_cast<char>(c);
      std::int64_t want = 0;
      for (const char b : kmer) {
        const unsigned code = BaseToCode(b);
        want = want < 0 || code >= 4 ? -1 : want * 4 + code;
      }
      EXPECT_EQ(EncodeKmer(kmer.data(), 5), want) << "byte " << c;
    }
  }
}

TEST(EncodeTest, RoundTrip) {
  Rng rng(5);
  for (const int length : {1, 15, 16, 17, 100, 150, 250, 300, 511, 512}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    Word enc[kMaxEncodedWords];
    EXPECT_FALSE(EncodeSequence(seq, enc));
    EXPECT_EQ(DecodeSequence(enc, length), seq) << "length " << length;
  }
}

TEST(EncodeTest, FirstBaseLandsInMsb) {
  Word enc[1];
  EncodeSequence("T", enc);
  EXPECT_EQ(enc[0], 0xC0000000u);
  EncodeSequence("C", enc);
  EXPECT_EQ(enc[0], 0x40000000u);
}

TEST(EncodeTest, UnknownBasesReportedAndEncodedAsA) {
  Word enc[kMaxEncodedWords];
  EXPECT_TRUE(EncodeSequence("ACGNT", enc));
  EXPECT_EQ(DecodeSequence(enc, 5), "ACGAT");
}

TEST(EncodeTest, PadBitsAreZero) {
  Word enc[2] = {0xFFFFFFFFu, 0xFFFFFFFFu};
  EncodeSequence("TTTTTTTTTTTTTTTTT", enc);  // 17 bases -> 2 words
  // Bases 17..31 of word 1 must be zeroed.
  for (int i = 17; i < 32; ++i) EXPECT_EQ(GetBase2Bit(enc, i), 0u) << i;
}

TEST(EncodeTest, BatchEncodeMatchesSingle) {
  Rng rng(17);
  const int length = 100;
  std::vector<std::string> seqs;
  for (int i = 0; i < 500; ++i) {
    seqs.push_back(RandomSeq(rng, length));
  }
  seqs[123][50] = 'N';
  const EncodedBatch batch = EncodeBatch(seqs, length);
  ASSERT_EQ(batch.size(), seqs.size());
  EXPECT_EQ(batch.has_n[123], 1);
  EXPECT_EQ(batch.has_n[122], 0);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    std::string expected = seqs[i];
    for (auto& c : expected) {
      if (BaseToCode(c) >= 4) c = 'A';
    }
    EXPECT_EQ(DecodeSequence(batch.Sequence(i), length), expected) << i;
  }
}

TEST(ReferenceEncodingTest, ExtractSegmentAtEveryOffset) {
  Rng rng(23);
  const std::string genome = RandomSeq(rng, 4096);
  const ReferenceEncoding ref = EncodeReference(genome);
  for (const int length : {20, 100, 150, 250}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::int64_t start = static_cast<std::int64_t>(
          rng.Uniform(genome.size() - static_cast<std::size_t>(length)));
      Word seg[kMaxEncodedWords];
      ref.ExtractSegment(start, length, seg);
      EXPECT_EQ(DecodeSequence(seg, length),
                genome.substr(static_cast<std::size_t>(start),
                              static_cast<std::size_t>(length)))
          << "start " << start << " length " << length;
    }
  }
}

TEST(ReferenceEncodingTest, ExtractedSegmentEqualsDirectEncoding) {
  // The kernel compares extracted segments against encoded reads word-for-
  // word, so extraction must produce the exact padded encoding.
  Rng rng(29);
  const std::string genome = RandomSeq(rng, 2000);
  const ReferenceEncoding ref = EncodeReference(genome);
  for (int trial = 0; trial < 100; ++trial) {
    const int length = 100;
    const std::int64_t start =
        static_cast<std::int64_t>(rng.Uniform(genome.size() - length));
    Word via_extract[kMaxEncodedWords];
    ref.ExtractSegment(start, length, via_extract);
    Word direct[kMaxEncodedWords];
    EncodeSequence(
        std::string_view(genome).substr(static_cast<std::size_t>(start),
                                        length),
        direct);
    for (int w = 0; w < EncodedWords(length); ++w) {
      ASSERT_EQ(via_extract[w], direct[w]) << "start " << start << " word "
                                           << w;
    }
  }
}

TEST(ReferenceEncodingTest, NMaskTracksUnknownRanges) {
  std::string genome = "ACGTACGTACGTACGTACGTACGTACGTACGT";  // 32 bases
  genome[10] = 'N';
  genome[25] = 'N';
  const ReferenceEncoding ref = EncodeReference(genome);
  EXPECT_TRUE(ref.RangeHasUnknown(8, 5));    // covers 10
  EXPECT_FALSE(ref.RangeHasUnknown(11, 10)); // 11..20
  EXPECT_TRUE(ref.RangeHasUnknown(20, 10));  // covers 25
  EXPECT_FALSE(ref.RangeHasUnknown(0, 10));
  // Out of range counts as unknown.
  EXPECT_TRUE(ref.RangeHasUnknown(-1, 5));
  EXPECT_TRUE(ref.RangeHasUnknown(30, 5));
}

TEST(ReferenceEncodingTest, ParallelEncodingMatchesSerial) {
  const std::string genome = GenerateGenome(300000, 77);
  ThreadPool pool(8);
  const ReferenceEncoding serial = EncodeReference(genome);
  const ReferenceEncoding parallel = EncodeReference(genome, &pool);
  EXPECT_EQ(serial.words, parallel.words);
  EXPECT_EQ(serial.n_mask, parallel.n_mask);
  EXPECT_EQ(serial.length, parallel.length);
}

// -------------------------------------------------------------- revcomp --

TEST(RevCompTest, ComplementsBasesAndCodes) {
  EXPECT_EQ(ComplementBase('A'), 'T');
  EXPECT_EQ(ComplementBase('C'), 'G');
  EXPECT_EQ(ComplementBase('g'), 'C');
  EXPECT_EQ(ComplementBase('t'), 'A');
  EXPECT_EQ(ComplementBase('N'), 'N');
  EXPECT_EQ(ComplementBase('x'), 'N');
  for (unsigned code = 0; code < 4; ++code) {
    EXPECT_EQ(BaseToCode(ComplementBase(CodeToBase(code))),
              ComplementCode(code));
  }
}

TEST(RevCompTest, ReverseComplementIntoMatchesComplementBaseOnEveryByte) {
  std::string all(256, '\0');
  for (int c = 0; c < 256; ++c) {
    all[static_cast<std::size_t>(c)] = static_cast<char>(c);
  }
  std::string out = "stale contents";
  ReverseComplementInto(all, &out);
  ASSERT_EQ(out.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(out[i], ComplementBase(all[all.size() - 1 - i]))
        << "byte " << static_cast<int>(static_cast<unsigned char>(
                          all[all.size() - 1 - i]));
  }
}

TEST(RevCompTest, KnownSequence) {
  EXPECT_EQ(ReverseComplement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(ReverseComplement("AACCGGTT"), "AACCGGTT");
  EXPECT_EQ(ReverseComplement("AAAT"), "ATTT");
  EXPECT_EQ(ReverseComplement("GATTACA"), "TGTAATC");
  EXPECT_EQ(ReverseComplement(""), "");
}

TEST(RevCompTest, StringRevCompIsAnInvolution) {
  Rng rng(91);
  for (const int length : {1, 7, 16, 33, 100, 257}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    EXPECT_EQ(ReverseComplement(ReverseComplement(seq)), seq)
        << "length " << length;
  }
}

TEST(RevCompTest, UnknownBasesMirrorAsN) {
  // 'N' has no complement; it stays 'N' at the mirrored position, so
  // has-N tracking survives reorientation unchanged.
  EXPECT_EQ(ReverseComplement("ANCG"), "CGNT");
  EXPECT_EQ(ReverseComplement("NNNN"), "NNNN");
  const std::string mixed = "ACGTNACGT";
  const std::string rc = ReverseComplement(mixed);
  ASSERT_EQ(rc.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(rc[i] == 'N', mixed[mixed.size() - 1 - i] == 'N') << i;
  }
}

TEST(RevCompTest, EncodedMatchesStringRevComp) {
  // Every length the filter kernels hold, with N bases: N encodes as A's
  // code, so its reverse complement carries T's.  The output fills
  // exactly EncodedWords(length) words with zero tail bits, whatever the
  // input's tail bits hold.
  Rng rng(92);
  for (int length = 0; length <= kMaxReadLength; ++length) {
    std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    for (auto n = rng.Uniform(3); n > 0 && length > 0; --n) {
      seq[rng.Uniform(static_cast<std::uint64_t>(length))] = 'N';
    }
    std::string as_encoded = seq;
    std::replace(as_encoded.begin(), as_encoded.end(), 'N', 'A');
    const int words = EncodedWords(length);
    Word enc[kMaxEncodedWords + 1];
    Word expect_enc[kMaxEncodedWords + 1];
    EncodeSequence(seq, enc);
    EncodeSequence(ReverseComplement(as_encoded), expect_enc);
    const int tail = words * kBasesPerWord - length;
    for (const Word input_tail : {Word{0}, ~Word{0}}) {
      if (tail > 0) enc[words - 1] |= input_tail >> (kWordBits - 2 * tail);
      Word rc_enc[kMaxEncodedWords + 1];
      std::fill(std::begin(rc_enc), std::end(rc_enc), ~Word{0});
      ReverseComplementEncoded(enc, length, rc_enc);
      for (int w = 0; w < words; ++w) {
        ASSERT_EQ(rc_enc[w], expect_enc[w])
            << "length " << length << " word " << w;
      }
      ASSERT_EQ(rc_enc[words], ~Word{0}) << "length " << length;
      if (tail > 0) {
        ASSERT_EQ(rc_enc[words - 1] & ~(~Word{0} << (2 * tail)), 0u)
            << "length " << length;
      }
      for (int i = 0; i < length; ++i) {
        if (seq[static_cast<std::size_t>(length - 1 - i)] == 'N') {
          ASSERT_EQ(GetBase2Bit(rc_enc, i), 3u) << "length " << length;
        }
      }
    }
  }
}

TEST(RevCompTest, EncodedRevCompIsAnInvolution) {
  Rng rng(93);
  const int length = 211;  // deliberately not word-aligned
  const std::string seq = RandomSeq(rng, length);
  Word enc[kMaxEncodedWords];
  Word once[kMaxEncodedWords];
  Word twice[kMaxEncodedWords];
  ASSERT_FALSE(EncodeSequence(seq, enc));
  ReverseComplementEncoded(enc, length, once);
  ReverseComplementEncoded(once, length, twice);
  for (int w = 0; w < EncodedWords(length); ++w) {
    EXPECT_EQ(twice[w], enc[w]) << w;
  }
}

}  // namespace
}  // namespace gkgpu
