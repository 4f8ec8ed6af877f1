// Tests for FASTA/FASTQ parsing (including malformed and hostile inputs —
// truncation, CRLF line endings, empty sequences, N-heavy reads — and the
// one FASTQ parser fed its input split at every byte), the
// multi-chromosome ReferenceSet, and pair-set serialization round trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "io/paired_fastq.hpp"
#include "io/pairset.hpp"
#include "io/reference.hpp"
#include "sim/pairgen.hpp"

namespace gkgpu {
namespace {

TEST(FastaTest, ParsesMultiRecordWithWrappedLines) {
  std::istringstream in(
      ">chr1 test\nACGT\nACGT\n>chr2\nTTTT\n; comment\nGGGG\n");
  const auto records = ReadFasta(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "chr1 test");
  EXPECT_EQ(records[0].seq, "ACGTACGT");
  EXPECT_EQ(records[1].name, "chr2");
  EXPECT_EQ(records[1].seq, "TTTTGGGG");
}

TEST(FastaTest, RejectsSequenceBeforeHeader) {
  std::istringstream in("ACGT\n>chr1\nACGT\n");
  EXPECT_THROW(ReadFasta(in), std::runtime_error);
}

TEST(FastaTest, RoundTrip) {
  std::vector<FastaRecord> records{{"a", std::string(150, 'A')},
                                   {"b", "ACGTN"}};
  std::ostringstream out;
  WriteFasta(out, records, 70);
  std::istringstream in(out.str());
  const auto back = ReadFasta(in);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].name, records[i].name);
    EXPECT_EQ(back[i].seq, records[i].seq);
  }
}

TEST(FastqTest, RoundTrip) {
  std::vector<FastqRecord> records{{"r1", "ACGT", "IIII"},
                                   {"r2", "GGTT", "!!!!"}};
  std::ostringstream out;
  WriteFastq(out, records);
  std::istringstream in(out.str());
  const auto back = ReadFastq(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "r1");
  EXPECT_EQ(back[0].seq, "ACGT");
  EXPECT_EQ(back[0].qual, "IIII");
  EXPECT_EQ(back[1].qual, "!!!!");
}

TEST(FastqTest, DefaultQualityFilledOnWrite) {
  std::vector<FastqRecord> records{{"r", "ACGTACGT", ""}};
  std::ostringstream out;
  WriteFastq(out, records);
  std::istringstream in(out.str());
  const auto back = ReadFastq(in);
  EXPECT_EQ(back[0].qual, std::string(8, 'I'));
}

TEST(FastqTest, RejectsMalformedRecords) {
  std::istringstream bad_header("rX\nACGT\n+\nIIII\n");
  EXPECT_THROW(ReadFastq(bad_header), std::runtime_error);
  std::istringstream truncated("@r1\nACGT\n");
  EXPECT_THROW(ReadFastq(truncated), std::runtime_error);
  std::istringstream bad_qual("@r1\nACGT\n+\nII\n");
  EXPECT_THROW(ReadFastq(bad_qual), std::runtime_error);
}

TEST(FastqTest, TruncationAtEveryRecordBoundary) {
  // A record can be cut after any of its four lines; every prefix that
  // ends mid-record must raise a clean error, never crash or return a
  // partial record.
  const std::string full = "@r1\nACGT\n+\nIIII\n@r2\nTTTT\n+\nIIII\n";
  for (const std::size_t keep_lines : {5u, 6u, 7u}) {
    std::size_t pos = 0;
    for (std::size_t l = 0; l < keep_lines; ++l) pos = full.find('\n', pos) + 1;
    std::istringstream in(full.substr(0, pos));
    EXPECT_THROW(ReadFastq(in), std::runtime_error) << keep_lines << " lines";
  }
  // Cut exactly at a record boundary: the first record must survive.
  std::size_t pos = 0;
  for (int l = 0; l < 4; ++l) pos = full.find('\n', pos) + 1;
  std::istringstream in(full.substr(0, pos));
  const auto records = ReadFastq(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "r1");
}

TEST(FastqTest, HandlesCrlfLineEndings) {
  std::istringstream in(
      "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTNN\r\n+\r\nIIII\r\n");
  const auto records = ReadFastq(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, "ACGT");
  EXPECT_EQ(records[0].qual, "IIII");
  EXPECT_EQ(records[1].seq, "TTNN");
}

TEST(FastqTest, RejectsEmptySequence) {
  std::istringstream in("@r1\n\n+\n\n");
  EXPECT_THROW(ReadFastq(in), std::runtime_error);
}

TEST(FastqTest, NHeavyReadsParseIntact) {
  const std::string n_read(150, 'N');
  std::istringstream in("@allN\n" + n_read + "\n+\n" +
                        std::string(150, 'I') + "\n");
  const auto records = ReadFastq(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, n_read);
}

TEST(FastqTest, QualityLineStartingWithAtIsNotAHeader) {
  // '@' is a legal quality character; the parser must consume four lines
  // per record, not resynchronize on '@'.
  std::istringstream in("@r1\nACGT\n+\n@@@@\n@r2\nTTTT\n+\nIIII\n");
  const auto records = ReadFastq(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].qual, "@@@@");
  EXPECT_EQ(records[1].name, "r2");
}

/// Every record `parser` yields until it needs more input (or ends).
std::vector<FastqRecord> Drain(FastqParser& parser) {
  std::vector<FastqRecord> records;
  FastqRecord rec;
  while (parser.Next(&rec)) records.push_back(rec);
  return records;
}

void ExpectSameRecords(const std::vector<FastqRecord>& got,
                       const std::vector<FastqRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << i;
    EXPECT_EQ(got[i].qual, want[i].qual) << i;
  }
}

TEST(FastqParserTest, SplitAtEveryByteYieldsTheRecordsOfOneAppend) {
  // CRLF lines, blank lines between records, a quality line that starts
  // with '@', and a last line without its '\n'.
  const std::string text =
      "@r1 desc\r\nACGT\r\n+\r\n@@II\r\n\n\r\n"
      "@r2\nTTNNA\n+r2\nIIIII\n\n"
      "@r3\nG\n+\n@";
  FastqParser whole;
  whole.Append(text);
  whole.Finish();
  const std::vector<FastqRecord> want = Drain(whole);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(want[0].name, "r1 desc");
  EXPECT_EQ(want[0].qual, "@@II");
  EXPECT_EQ(want[1].seq, "TTNNA");
  EXPECT_EQ(want[2].qual, "@");

  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    SCOPED_TRACE(cut);
    FastqParser parser;
    parser.Append(std::string_view(text).substr(0, cut));
    std::vector<FastqRecord> got = Drain(parser);
    parser.Append(std::string_view(text).substr(cut));
    parser.Finish();
    for (FastqRecord& r : Drain(parser)) got.push_back(std::move(r));
    ExpectSameRecords(got, want);
  }
  FastqParser bytewise;
  std::vector<FastqRecord> got;
  for (const char c : text) {
    bytewise.Append(std::string_view(&c, 1));
    for (FastqRecord& r : Drain(bytewise)) got.push_back(std::move(r));
  }
  bytewise.Finish();
  for (FastqRecord& r : Drain(bytewise)) got.push_back(std::move(r));
  ExpectSameRecords(got, want);
}

TEST(FastqParserTest, TruncatedLastRecordThrowsOnlyAfterFinish) {
  FastqParser parser;
  parser.Append("@r1\nACGT\n+\nIIII\n@r2\nAC");
  FastqRecord rec;
  ASSERT_TRUE(parser.Next(&rec));
  EXPECT_EQ(rec.name, "r1");
  EXPECT_FALSE(parser.Next(&rec));  // r2's lines may still come
  EXPECT_FALSE(parser.Next(&rec));
  parser.Finish();
  try {
    parser.Next(&rec);
    ADD_FAILURE() << "a truncated record parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("FASTQ: truncated record: @r2"),
              std::string::npos)
        << e.what();
  }
}

TEST(FastqParserTest, SequenceLongerThanOneReadBlockParses) {
  const std::size_t length = FastqStreamReader::kReadBlockBytes * 2 + 77;
  const std::string seq(length, 'G');
  std::istringstream in("@short\nAC\n+\nII\n@long\n" + seq + "\n+\n" +
                        std::string(length, 'I') + "\n@tail\nT\n+\nI");
  const auto records = ReadFastq(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].name, "long");
  EXPECT_EQ(records[1].seq, seq);
  EXPECT_EQ(records[1].qual.size(), length);
  EXPECT_EQ(records[2].seq, "T");
}

TEST(FastaTest, HandlesCrlfAndBlankLines) {
  std::istringstream in(">chr1\r\nACGT\r\n\r\nACGT\r\n>chr2\r\nTT\r\n");
  const auto records = ReadFasta(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, "ACGTACGT");
  EXPECT_EQ(records[1].seq, "TT");
}

TEST(FastaTest, HeaderOnlyRecordYieldsEmptySequence) {
  // ReadFasta keeps the record (defined handling); consumers that need a
  // non-empty sequence reject it (see ReferenceSetTest below).
  std::istringstream in(">empty\n>chr1\nACGT\n");
  const auto records = ReadFasta(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].seq.empty());
}

// ------------------------------------------------------------ reference --

TEST(ReferenceSetTest, ConcatenatesAndLocates) {
  ReferenceSet ref;
  ref.Add("chr1", "ACGTACGT");   // [0, 8)
  ref.Add("chr2", "TTTT");       // [8, 12)
  ref.Add("chr3", "GGGGGG");     // [12, 18)
  EXPECT_EQ(ref.length(), 18);
  ASSERT_EQ(ref.chromosome_count(), 3u);
  EXPECT_EQ(ref.text(), "ACGTACGTTTTTGGGGGG");
  EXPECT_EQ(ref.Locate(0), 0);
  EXPECT_EQ(ref.Locate(7), 0);
  EXPECT_EQ(ref.Locate(8), 1);
  EXPECT_EQ(ref.Locate(11), 1);
  EXPECT_EQ(ref.Locate(12), 2);
  EXPECT_EQ(ref.Locate(17), 2);
  EXPECT_EQ(ref.Locate(18), -1);
  EXPECT_EQ(ref.Locate(-1), -1);
  EXPECT_EQ(ref.ToLocal(1, 9), 1);
  EXPECT_EQ(ref.chromosome_ends(), (std::vector<std::int64_t>{8, 12, 18}));
  const ReferenceSet view =
      ReferenceSet::View(ref.chromosomes(), ref.text(), ref.fingerprint());
  EXPECT_EQ(view.chromosome_ends(), ref.chromosome_ends());
  EXPECT_EQ(ReferenceSet("one", "ACGT").chromosome_ends(),
            (std::vector<std::int64_t>{4}));
}

TEST(ReferenceSetTest, WindowsCrossingJunctionsAreRejected) {
  ReferenceSet ref;
  ref.Add("chr1", "ACGTACGT");
  ref.Add("chr2", "TTTTTTTT");
  EXPECT_TRUE(ref.WindowWithinChromosome(0, 8));
  EXPECT_TRUE(ref.WindowWithinChromosome(8, 8));
  EXPECT_FALSE(ref.WindowWithinChromosome(4, 8));   // spans the junction
  EXPECT_FALSE(ref.WindowWithinChromosome(12, 8));  // runs off the end
  EXPECT_FALSE(ref.WindowWithinChromosome(-1, 4));
  EXPECT_FALSE(ref.WindowWithinChromosome(0, 0));
}

TEST(ReferenceSetTest, FromFastaTruncatesNamesAtWhitespace) {
  const ReferenceSet ref = ReferenceSet::FromFasta(
      {{"chr1 length=8 assembly=x", "ACGTACGT"}, {"chr2\tdesc", "TTTT"}});
  EXPECT_EQ(ref.chromosome(0).name, "chr1");
  EXPECT_EQ(ref.chromosome(1).name, "chr2");
}

TEST(ReferenceSetTest, RejectsMalformedRecordSets) {
  EXPECT_THROW(ReferenceSet::FromFasta({}), std::runtime_error);
  EXPECT_THROW(ReferenceSet::FromFasta({{"empty", ""}}), std::runtime_error);
  EXPECT_THROW(ReferenceSet::FromFasta({{"", "ACGT"}}), std::runtime_error);
  EXPECT_THROW(
      ReferenceSet::FromFasta({{"dup", "ACGT"}, {"dup", "TTTT"}}),
      std::runtime_error);
}

// --------------------------------------------------------- paired FASTQ --

TEST(PairedFastqTest, DualFilePairsInOrder) {
  std::istringstream r1("@p0/1\nACGT\n+\nIIII\n@p1/1\nTTTT\n+\nIIII\n");
  std::istringstream r2("@p0/2\nGGGG\n+\nIIII\n@p1/2\nCCCC\n+\nIIII\n");
  PairedFastqReader reader(r1, r2);
  FastqRecord a, b;
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_EQ(a.name, "p0/1");
  EXPECT_EQ(b.name, "p0/2");
  EXPECT_EQ(a.seq, "ACGT");
  EXPECT_EQ(b.seq, "GGGG");
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_EQ(a.seq, "TTTT");
  EXPECT_FALSE(reader.Next(&a, &b));
  EXPECT_EQ(reader.pairs_read(), 2u);
}

TEST(PairedFastqTest, InterleavedMatchesDualFile) {
  std::istringstream inter(
      "@p0/1\nACGT\n+\nIIII\n@p0/2\nGGGG\n+\nIIII\n"
      "@p1/1\nTTTT\n+\nIIII\n@p1/2\nCCCC\n+\nIIII\n");
  PairedFastqReader reader(inter);
  FastqRecord a, b;
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_EQ(a.seq, "ACGT");
  EXPECT_EQ(b.seq, "GGGG");
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_EQ(b.seq, "CCCC");
  EXPECT_FALSE(reader.Next(&a, &b));
}

TEST(PairedFastqTest, TruncatedR2RaisesCleanError) {
  // R2 holds one record fewer than R1 (a truncated mate file must never
  // silently re-pair the remaining reads).
  std::istringstream r1("@p0/1\nACGT\n+\nIIII\n@p1/1\nTTTT\n+\nIIII\n");
  std::istringstream r2("@p0/2\nGGGG\n+\nIIII\n");
  PairedFastqReader reader(r1, r2);
  FastqRecord a, b;
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_THROW(reader.Next(&a, &b), std::runtime_error);
}

TEST(PairedFastqTest, TruncatedR1RaisesCleanError) {
  std::istringstream r1("@p0/1\nACGT\n+\nIIII\n");
  std::istringstream r2("@p0/2\nGGGG\n+\nIIII\n@p1/2\nTTTT\n+\nIIII\n");
  PairedFastqReader reader(r1, r2);
  FastqRecord a, b;
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_THROW(reader.Next(&a, &b), std::runtime_error);
}

TEST(PairedFastqTest, NameMismatchRaisesCleanError) {
  std::istringstream r1("@p0/1\nACGT\n+\nIIII\n");
  std::istringstream r2("@other/2\nGGGG\n+\nIIII\n");
  PairedFastqReader reader(r1, r2);
  FastqRecord a, b;
  EXPECT_THROW(reader.Next(&a, &b), std::runtime_error);
}

TEST(PairedFastqTest, OddInterleavedCountRaisesCleanError) {
  std::istringstream inter(
      "@p0/1\nACGT\n+\nIIII\n@p0/2\nGGGG\n+\nIIII\n@p1/1\nTTTT\n+\nIIII\n");
  PairedFastqReader reader(inter);
  FastqRecord a, b;
  ASSERT_TRUE(reader.Next(&a, &b));
  EXPECT_THROW(reader.Next(&a, &b), std::runtime_error);
}

TEST(PairedFastqTest, BaseNameStripsMateSuffixAndDescription) {
  EXPECT_EQ(PairedFastqReader::BaseName("read7/1"), "read7");
  EXPECT_EQ(PairedFastqReader::BaseName("read7/2"), "read7");
  EXPECT_EQ(PairedFastqReader::BaseName("read7.1"), "read7");
  EXPECT_EQ(PairedFastqReader::BaseName("read7 1:N:0:ACGT"), "read7");
  EXPECT_EQ(PairedFastqReader::BaseName("read7"), "read7");
  // Identical names (no suffix convention) also pair.
  EXPECT_TRUE(PairedFastqReader::NamesMatch("frag12", "frag12"));
  EXPECT_TRUE(PairedFastqReader::NamesMatch("frag12/1", "frag12/2"));
  EXPECT_FALSE(PairedFastqReader::NamesMatch("frag12/1", "frag13/2"));
}

TEST(PairSetTest, RoundTrip) {
  const auto pairs = GeneratePairs(100, LowEditProfile(100), 3);
  std::ostringstream out;
  WritePairSet(out, pairs);
  std::istringstream in(out.str());
  const auto back = ReadPairSet(in);
  ASSERT_EQ(back.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(back[i].read, pairs[i].read);
    EXPECT_EQ(back[i].ref, pairs[i].ref);
  }
}

TEST(PairSetTest, RejectsMalformedLines) {
  std::istringstream no_tab("# header\nACGTACGT\n");
  EXPECT_THROW(ReadPairSet(no_tab), std::runtime_error);
  std::istringstream mismatch("ACGT\tAC\n");
  EXPECT_THROW(ReadPairSet(mismatch), std::runtime_error);
  // A pair set is filtered as one batch: every pair has the first's length.
  const auto expect_line_3 = [](const char* text) {
    std::istringstream mixed(text);
    try {
      ReadPairSet(mixed);
      ADD_FAILURE() << "mixed lengths accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3 has length"),
                std::string::npos)
          << e.what();
    }
  };
  expect_line_3("# h\nACGT\tACGA\nACGTAC\tACGTAC\n");
  expect_line_3("# h\nACGT\tACGA\nAC\tAC\n");
}

}  // namespace
}  // namespace gkgpu
