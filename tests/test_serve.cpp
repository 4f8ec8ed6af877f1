// In-process tests for the mapping daemon (serve/server.hpp +
// serve/client.hpp): byte parity with the standalone FASTQ-to-SAM stream,
// concurrent clients demultiplexed onto their own byte-identical SAM
// streams (with cross-request chunk coalescing observed in the stats),
// every streaming driver's SAM under No Filter, GateKeeper and
// SneakySnake, every driver's registry funnel balancing (stopped runs
// included), wrong-length and malformed inputs, a chunk worker's error
// (a corrupt index bucket), the client's named connect errors, and
// shutdown drain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "filters/gatekeeper.hpp"
#include "filters/sneakysnake.hpp"
#include "funnel_delta.hpp"
#include "io/index_io.hpp"
#include "io/paired_fastq.hpp"
#include "io/reference.hpp"
#include "mapper/index.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "paired/paired.hpp"
#include "pipeline/read_to_sam.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace gkgpu {
namespace {

constexpr int kReadLength = 64;
constexpr int kErrors = 3;

std::string MakeFastq(const std::string& prefix,
                      const std::vector<std::string>& seqs) {
  std::string out;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    out += "@" + prefix + std::to_string(i) + "\n" + seqs[i] + "\n+\n" +
           std::string(seqs[i].size(), 'I') + "\n";
  }
  return out;
}

// --- raw-socket helpers for the frame-timing tests: the client library
// always sends whole frames, so pauses *inside* a frame need hand-rolled
// byte-level writes. ---------------------------------------------------

int ConnectRaw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void SendRaw(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

std::string FrameBytes(serve::FrameType type, std::string_view payload) {
  const std::uint32_t prelude[2] = {
      static_cast<std::uint32_t>(type),
      static_cast<std::uint32_t>(payload.size()),
  };
  std::string out(reinterpret_cast<const char*>(prelude), sizeof(prelude));
  out.append(payload);
  return out;
}

/// Reads server frames until kDone, kError, or EOF; returns the final
/// frame (kJob type doubles as the "EOF before a terminal frame" marker).
serve::Frame DrainToTerminal(int fd) {
  serve::Frame frame;
  serve::Frame last;
  last.type = serve::FrameType::kJob;
  while (serve::ReadFrame(fd, &frame)) {
    last = frame;
    if (frame.type == serve::FrameType::kDone ||
        frame.type == serve::FrameType::kError) {
      break;
    }
  }
  return last;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : ref_("chr_serve", GenerateGenome(20000, 31)), mapper_(MakeMapper()) {}

  ReadMapper MakeMapper() {
    MapperConfig mcfg;
    mcfg.k = 8;
    mcfg.read_length = kReadLength;
    mcfg.error_threshold = kErrors;
    mcfg.verify_threads = 2;
    return ReadMapper(ReferenceSet(ref_), mcfg);
  }

  /// The standalone answer for one FASTQ payload: header + streamed
  /// records, exactly what the daemon must reproduce byte for byte.
  std::string Golden(const std::string& fastq_text,
                     const std::string& read_group = "") {
    ReadMapper mapper = MakeMapper();
    pipeline::ReadToSamConfig scfg;
    scfg.read_group = read_group;
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), read_group);
    std::istringstream fastq(fastq_text);
    pipeline::StreamFastqToSam(fastq, mapper, &gatekeeper_, scfg, &sam);
    return sam.str();
  }

  serve::ServeConfig BaseConfig() {
    serve::ServeConfig scfg;
    scfg.socket_path =
        (std::filesystem::temp_directory_path() /
         ("gkgpu_serve_test_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          ".sock"))
            .string();
    scfg.threads = 2;
    scfg.request_timeout_sec = 20;
    return scfg;
  }

  /// Runs `body(socket_path)` against a live server, then drains it.
  template <typename Body>
  serve::ServeStats WithServer(const serve::ServeConfig& scfg, Body body) {
    return WithServer(scfg, &gatekeeper_, body);
  }

  /// The same over `filter` (null = No Filter).
  template <typename Body>
  serve::ServeStats WithServer(const serve::ServeConfig& scfg,
                               const PreAlignmentFilter* filter, Body body) {
    serve::MapServer server(mapper_, filter, scfg);
    std::thread run([&] { server.Run(); });
    for (int i = 0; i < 2000 && !server.serving(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(server.serving());
    body(scfg.socket_path);
    server.Shutdown();
    run.join();
    return server.stats();
  }

  ReferenceSet ref_;
  ReadMapper mapper_;
  /// The filter `gkgpu map` and `gkgpu serve` run.
  const GateKeeperFilter gatekeeper_;
};

TEST_F(ServeTest, SingleClientMatchesStandalonePipeline) {
  const auto seqs = SimulateReadSequences(
      ref_.text(), 200, kReadLength, ReadErrorProfile::Illumina(), 7);
  const std::string fastq_text = MakeFastq("a", seqs);
  const std::string golden = Golden(fastq_text);

  std::string served;
  serve::ClientStats cstats;
  const serve::ServeStats stats =
      WithServer(BaseConfig(), [&](const std::string& socket) {
        std::istringstream fastq(fastq_text);
        std::ostringstream sam;
        cstats = serve::MapOverSocket(socket, fastq, sam);
        served = sam.str();
      });
  EXPECT_EQ(served, golden);
  EXPECT_EQ(cstats.reads, 200u);
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_EQ(stats.reads, 200u);
  EXPECT_EQ(stats.records, cstats.records);
}

TEST_F(ServeTest, JobOptionsReachTheSamStream) {
  const auto seqs = SimulateReadSequences(
      ref_.text(), 50, kReadLength, ReadErrorProfile::Illumina(), 8);
  const std::string fastq_text = MakeFastq("rg", seqs);
  const std::string golden = Golden(fastq_text, "lane1");

  std::string served;
  WithServer(BaseConfig(), [&](const std::string& socket) {
    serve::JobSpec job;
    job.read_group = "lane1";
    std::istringstream fastq(fastq_text);
    std::ostringstream sam;
    serve::MapOverSocket(socket, fastq, sam, job);
    served = sam.str();
  });
  EXPECT_EQ(served, golden);
  EXPECT_NE(served.find("@RG\tID:lane1"), std::string::npos);
}

TEST_F(ServeTest, ConcurrentClientsAreDemuxedAndCoalesced) {
  const auto seqs_a = SimulateReadSequences(
      ref_.text(), 150, kReadLength, ReadErrorProfile::Illumina(), 9);
  const auto seqs_b = SimulateReadSequences(
      ref_.text(), 150, kReadLength, ReadErrorProfile::Illumina(), 10);
  const std::string fastq_a = MakeFastq("alpha", seqs_a);
  const std::string fastq_b = MakeFastq("beta", seqs_b);
  const std::string golden_a = Golden(fastq_a);
  const std::string golden_b = Golden(fastq_b);

  serve::ServeConfig scfg = BaseConfig();
  // A long linger makes a part-filled chunk wait for the other session's
  // reads, so the coalesced-chunk counter must observe cross-request
  // batching.
  scfg.linger_ms = 200;

  std::string served_a, served_b;
  const serve::ServeStats stats =
      WithServer(scfg, [&](const std::string& socket) {
        std::thread ta([&] {
          std::istringstream fastq(fastq_a);
          std::ostringstream sam;
          serve::MapOverSocket(socket, fastq, sam);
          served_a = sam.str();
        });
        std::thread tb([&] {
          std::istringstream fastq(fastq_b);
          std::ostringstream sam;
          serve::MapOverSocket(socket, fastq, sam);
          served_b = sam.str();
        });
        ta.join();
        tb.join();
      });
  // Each client gets exactly its own records, in its own order.
  EXPECT_EQ(served_a, golden_a);
  EXPECT_EQ(served_b, golden_b);
  EXPECT_EQ(stats.sessions_completed, 2u);
  EXPECT_EQ(stats.reads, 300u);
  EXPECT_GE(stats.coalesced_batches, 1u);
}

TEST_F(ServeTest, EveryDriverWritesTheSameSamUnderEveryLosslessFilter) {
  // One input — simulated pairs — through the single-end stream, the
  // daemon (both mates as one FASTQ) and paired mapping, under No Filter,
  // GateKeeper and SneakySnake.  A lossless filter changes only what gets
  // verified, so each driver writes the same bytes under all three, and
  // the daemon writes the standalone stream's.
  PairSimConfig pair_cfg;
  pair_cfg.read_length = kReadLength;
  pair_cfg.insert_mean = 200.0;
  pair_cfg.insert_sd = 20.0;
  std::vector<std::string> mates1, mates2, mates;
  for (const SimulatedPair& p : SimulatePairs(ref_.text(), 60, pair_cfg, 14)) {
    mates1.push_back(p.seq1);
    mates2.push_back(p.seq2);
    mates.push_back(p.seq1);
    mates.push_back(p.seq2);
  }
  const std::string single_fastq = MakeFastq("m", mates);
  PairedConfig pconf;
  pconf.max_insert = 400;

  const SneakySnakeFilter snake;
  const std::vector<const PreAlignmentFilter*> filters{nullptr, &gatekeeper_,
                                                       &snake};
  std::string single_golden, paired_golden;
  for (const PreAlignmentFilter* filter : filters) {
    SCOPED_TRACE(filter == nullptr ? "No Filter" : filter->name());
    std::ostringstream single;
    WriteSamHeader(single, mapper_.reference(), "");
    const FunnelDelta single_funnel = FunnelAcross([&] {
      std::istringstream fastq(single_fastq);
      pipeline::StreamFastqToSam(fastq, mapper_, filter,
                                 pipeline::ReadToSamConfig{}, &single);
    });

    std::string served;
    const serve::ServeStats served_stats =
        WithServer(BaseConfig(), filter, [&](const std::string& socket) {
          std::istringstream in(single_fastq);
          std::ostringstream sam;
          serve::MapOverSocket(socket, in, sam);
          served = sam.str();
        });
    EXPECT_EQ(served_stats.reads, mates.size());
    EXPECT_EQ(served, single.str());

    std::istringstream fq1(MakeFastq("p", mates1));
    std::istringstream fq2(MakeFastq("p", mates2));
    PairedFastqReader reader(fq1, fq2);
    std::ostringstream paired;
    WriteSamHeader(paired, mapper_.reference(), "");
    const PairedStats pstats =
        PairedEndMapper(mapper_, pconf).MapPairs(reader, filter, &paired);
    EXPECT_EQ(pstats.pairs, mates1.size());

    if (filter == nullptr) {
      single_golden = single.str();
      paired_golden = paired.str();
      EXPECT_EQ(single_funnel.rejects, 0.0);
      EXPECT_EQ(pstats.rejected_pairs, 0u);
    } else {
      EXPECT_EQ(single.str(), single_golden);
      EXPECT_EQ(paired.str(), paired_golden);
      // The filter rejects candidates on each driver, so the equalities
      // are not vacuous.
      EXPECT_GT(single_funnel.rejects, 0.0);
      EXPECT_GT(pstats.rejected_pairs, 0u);
    }
  }
  EXPECT_EQ(single_golden, Golden(single_fastq));
}

TEST_F(ServeTest, EveryDriverBalancesTheFunnel) {
  // The registry is the one tally of the mapping funnel.  Every driver
  // counts each read it writes mapped or unmapped, per chunk, so a run
  // stopped by a malformed record counts the reads before it; and each
  // step's candidates add up to the next step's, under No Filter and
  // GateKeeper.  One wrong-length record per input is skipped, outside
  // the funnel.
  PairSimConfig pair_cfg;
  pair_cfg.read_length = kReadLength;
  pair_cfg.insert_mean = 200.0;
  pair_cfg.insert_sd = 20.0;
  std::vector<std::string> mates1, mates2;
  for (const SimulatedPair& p : SimulatePairs(ref_.text(), 150, pair_cfg, 16)) {
    mates1.push_back(p.seq1);
    mates2.push_back(p.seq2);
  }
  const std::string short_record = "@short\nACGTACGT\n+\nIIIIIIII\n";
  const std::string single_fastq = MakeFastq("s", mates1) + short_record;
  PairedConfig pconf;
  pconf.max_insert = 400;
  const auto stream = [&](const std::string& text,
                          const PreAlignmentFilter* filter) {
    std::istringstream fastq(text);
    return pipeline::StreamFastqToSam(fastq, mapper_, filter,
                                      pipeline::ReadToSamConfig{}, nullptr);
  };
  const auto map_pairs = [&](const std::string& text1, const std::string& text2,
                             const PreAlignmentFilter* filter) {
    std::istringstream fq1(text1);
    std::istringstream fq2(text2);
    PairedFastqReader reader(fq1, fq2);
    return PairedEndMapper(mapper_, pconf).MapPairs(reader, filter, nullptr);
  };
  // The filter's input is what the step before it passed on.
  const auto expect_filtered = [](const FunnelDelta& f, double input,
                                  const PreAlignmentFilter* filter) {
    EXPECT_GT(f.mapped, 0.0);
    if (filter == nullptr) {
      EXPECT_EQ(f.filter_input, 0.0);
      return;
    }
    EXPECT_GT(f.rejects, 0.0);
    EXPECT_EQ(f.filter_input, input);
    EXPECT_EQ(f.accepts + f.rejects, f.filter_input);
  };

  const std::vector<const PreAlignmentFilter*> filters{nullptr, &gatekeeper_};
  for (const PreAlignmentFilter* filter : filters) {
    SCOPED_TRACE(filter == nullptr ? "No Filter" : filter->name());
    pipeline::ReadToSamStats st;
    const FunnelDelta single =
        FunnelAcross([&] { st = stream(single_fastq, filter); });
    EXPECT_EQ(st.skipped_reads, 1u);
    EXPECT_EQ(single.mapped + single.unmapped,
              static_cast<double>(st.reads - st.skipped_reads));
    expect_filtered(single, single.seeded, filter);

    serve::ServeStats served;
    const FunnelDelta daemon = FunnelAcross([&] {
      served = WithServer(BaseConfig(), filter, [&](const std::string& sock) {
        std::istringstream fastq(single_fastq);
        std::ostringstream sam;
        serve::MapOverSocket(sock, fastq, sam);
      });
    });
    // The daemon counts the reads it admits, so skipped ones are out.
    EXPECT_EQ(served.skipped_reads, 1u);
    EXPECT_EQ(daemon.mapped + daemon.unmapped,
              static_cast<double>(served.reads));
    expect_filtered(daemon, daemon.seeded, filter);

    PairedStats ps;
    const FunnelDelta paired = FunnelAcross([&] {
      ps = map_pairs(MakeFastq("p", mates1) + short_record,
                     MakeFastq("p", mates2) + short_record, filter);
    });
    EXPECT_EQ(ps.skipped_pairs, 1u);
    EXPECT_EQ(paired.mapped + paired.unmapped,
              2.0 * static_cast<double>(ps.pairs - ps.skipped_pairs));
    const auto paired_input = static_cast<double>(ps.candidates_paired);
    EXPECT_EQ(paired.seeded - paired.pruned, paired_input);
    EXPECT_EQ(paired.rescued, static_cast<double>(ps.rescued_mates));
    expect_filtered(paired, paired_input, filter);
  }

  // Runs stopped by their input count every read they wrote.
  const std::vector<std::string> first120(mates1.begin(), mates1.begin() + 120);
  const FunnelDelta stopped = FunnelAcross([&] {
    const std::string bad = "@bad\nACGT\n+\nII\n";
    EXPECT_THROW(stream(MakeFastq("s", first120) + bad, &gatekeeper_),
                 std::runtime_error);
  });
  EXPECT_EQ(stopped.mapped + stopped.unmapped, 120.0);
  expect_filtered(stopped, stopped.seeded, &gatekeeper_);

  const std::vector<std::string> first100(mates2.begin(), mates2.begin() + 100);
  const FunnelDelta truncated = FunnelAcross([&] {
    EXPECT_THROW(map_pairs(MakeFastq("p", mates1), MakeFastq("p", first100),
                           &gatekeeper_),
                 std::runtime_error);
  });
  EXPECT_EQ(truncated.mapped + truncated.unmapped, 200.0);
  EXPECT_GT(truncated.pruned, 0.0);
  expect_filtered(truncated, truncated.seeded - truncated.pruned, &gatekeeper_);
}

TEST(ServeClientTest, EachCallNamesItselfWhenItCannotConnect) {
  const std::string missing = "/nonexistent/gkgpu.sock";
  const auto error_of = [](const auto& call) {
    try {
      call();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string stats = error_of([&] { serve::QueryStats(missing); });
  EXPECT_EQ(stats.rfind("stats: cannot connect to " + missing, 0), 0u)
      << stats;
  const std::string job = error_of([&] {
    std::istringstream fastq("");
    std::ostringstream sam;
    serve::MapOverSocket(missing, fastq, sam);
  });
  EXPECT_EQ(job.rfind("map-client: cannot connect to " + missing, 0), 0u)
      << job;
}

TEST_F(ServeTest, WrongLengthReadsAreSkippedNotFatal) {
  auto seqs = SimulateReadSequences(ref_.text(), 20, kReadLength,
                                    ReadErrorProfile::Illumina(), 11);
  std::string fastq_text = MakeFastq("ok", seqs);
  fastq_text += "@short0\nACGTACGT\n+\nIIIIIIII\n";  // wrong length
  const std::string golden = Golden(MakeFastq("ok", seqs));

  std::string served;
  serve::ClientStats cstats;
  const serve::ServeStats stats =
      WithServer(BaseConfig(), [&](const std::string& socket) {
        std::istringstream fastq(fastq_text);
        std::ostringstream sam;
        cstats = serve::MapOverSocket(socket, fastq, sam);
        served = sam.str();
      });
  EXPECT_EQ(served, golden);
  EXPECT_EQ(cstats.reads, 20u);
  EXPECT_EQ(stats.skipped_reads, 1u);
  EXPECT_EQ(stats.sessions_completed, 1u);
}

TEST_F(ServeTest, MalformedFastqFailsOnlyThatSession) {
  const auto seqs = SimulateReadSequences(ref_.text(), 20, kReadLength,
                                          ReadErrorProfile::Illumina(), 12);
  const std::string good_text = MakeFastq("g", seqs);
  const std::string golden = Golden(good_text);

  std::string served;
  const serve::ServeStats stats =
      WithServer(BaseConfig(), [&](const std::string& socket) {
        {
          std::istringstream fastq("this is not FASTQ\n");
          std::ostringstream sam;
          EXPECT_THROW(serve::MapOverSocket(socket, fastq, sam),
                       std::runtime_error);
        }
        // The daemon keeps serving after a failed session.
        std::istringstream fastq(good_text);
        std::ostringstream sam;
        serve::MapOverSocket(socket, fastq, sam);
        served = sam.str();
      });
  EXPECT_EQ(served, golden);
  EXPECT_EQ(stats.sessions_failed, 1u);
  EXPECT_EQ(stats.sessions_completed, 1u);
}

TEST_F(ServeTest, TinyDataFramesSplitAnywhereGiveTheStandaloneSam) {
  // kData frames of 1-7 bytes split records, lines and CRLF pairs at every
  // kind of offset; the daemon's FastqParser reassembles the same records
  // a file-based run parses.
  const auto seqs = SimulateReadSequences(ref_.text(), 30, kReadLength,
                                          ReadErrorProfile::Illumina(), 15);
  std::string fastq_text = MakeFastq("tiny", seqs);
  const std::string golden = Golden(fastq_text);
  const std::size_t cr = fastq_text.find('\n');
  fastq_text.insert(cr, "\r");  // one CRLF line, then a blank one
  fastq_text.insert(fastq_text.find("\n@"), "\n");

  std::string served;
  const serve::ServeStats stats =
      WithServer(BaseConfig(), [&](const std::string& socket) {
        const int fd = ConnectRaw(socket);
        SendRaw(fd, FrameBytes(serve::FrameType::kJob, ""));
        std::size_t at = 0;
        for (std::size_t i = 0; at < fastq_text.size(); ++i) {
          const std::size_t size = i % 7 + 1;
          SendRaw(fd, FrameBytes(serve::FrameType::kData,
                                 std::string_view(fastq_text).substr(at, size)));
          at += size;
        }
        SendRaw(fd, FrameBytes(serve::FrameType::kEnd, ""));
        serve::Frame frame;
        while (serve::ReadFrame(fd, &frame) &&
               frame.type != serve::FrameType::kDone) {
          ASSERT_NE(frame.type, serve::FrameType::kError) << frame.payload;
          if (frame.type == serve::FrameType::kSamHeader ||
              frame.type == serve::FrameType::kSamRecords) {
            served += frame.payload;
          }
        }
        ::close(fd);
      });
  EXPECT_EQ(served, golden);
  EXPECT_EQ(stats.reads, 30u);
  EXPECT_EQ(stats.sessions_completed, 1u);
}

TEST_F(ServeTest, SlowMidFramePauseOutlivesTheReceiveTick) {
  // A client that pauses *inside* a kData frame for longer than the idle
  // timeout is still making progress on that frame — the receive-timeout
  // expiry mid-frame must resume the read (up to the frame deadline), not
  // surface as a malformed-frame/timeout error.
  const auto seqs = SimulateReadSequences(ref_.text(), 8, kReadLength,
                                          ReadErrorProfile::Illumina(), 13);
  const std::string fastq_text = MakeFastq("slow", seqs);
  const std::string data = FrameBytes(serve::FrameType::kData, fastq_text);
  const std::size_t split = data.size() / 2;

  serve::ServeConfig scfg = BaseConfig();
  scfg.request_timeout_sec = 1;  // several receive ticks inside the pause

  const serve::ServeStats stats =
      WithServer(scfg, [&](const std::string& socket) {
        const int fd = ConnectRaw(socket);
        SendRaw(fd, FrameBytes(serve::FrameType::kJob, ""));
        SendRaw(fd, data.substr(0, split));
        std::this_thread::sleep_for(std::chrono::milliseconds(1400));
        SendRaw(fd, data.substr(split));
        SendRaw(fd, FrameBytes(serve::FrameType::kEnd, ""));
        const serve::Frame last = DrainToTerminal(fd);
        EXPECT_EQ(last.type, serve::FrameType::kDone) << last.payload;
        ::close(fd);
      });
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_EQ(stats.reads, 8u);
}

TEST_F(ServeTest, SilentMidFrameStallHitsTheFrameDeadline) {
  // A frame that *starts* but never finishes must still die — on the
  // frame deadline, with a timeout error, not a malformed-frame one.
  serve::ServeConfig scfg = BaseConfig();
  scfg.request_timeout_sec = 1;
  scfg.frame_deadline_sec = 2;

  const serve::ServeStats stats =
      WithServer(scfg, [&](const std::string& socket) {
        const int fd = ConnectRaw(socket);
        SendRaw(fd, FrameBytes(serve::FrameType::kJob, ""));
        // A kData frame claiming 64 payload bytes, of which 4 ever arrive.
        const std::string partial =
            FrameBytes(serve::FrameType::kData, std::string(64, 'A'))
                .substr(0, serve::kFramePreludeBytes + 4);
        SendRaw(fd, partial);
        const serve::Frame last = DrainToTerminal(fd);
        EXPECT_EQ(last.type, serve::FrameType::kError);
        EXPECT_NE(last.payload.find("timed out"), std::string::npos)
            << last.payload;
        ::close(fd);
      });
  EXPECT_EQ(stats.sessions_failed, 1u);
  EXPECT_EQ(stats.sessions_completed, 0u);
}

TEST_F(ServeTest, AbruptCloseMidFrameIsMalformedNotTimeout) {
  serve::ServeConfig scfg = BaseConfig();
  scfg.request_timeout_sec = 1;

  const serve::ServeStats stats =
      WithServer(scfg, [&](const std::string& socket) {
        const int fd = ConnectRaw(socket);
        SendRaw(fd, FrameBytes(serve::FrameType::kJob, ""));
        // Half a prelude, then EOF: genuinely malformed input.
        const std::string half =
            FrameBytes(serve::FrameType::kData, "xyz").substr(0, 4);
        SendRaw(fd, half);
        ::shutdown(fd, SHUT_WR);
        const serve::Frame last = DrainToTerminal(fd);
        EXPECT_EQ(last.type, serve::FrameType::kError);
        EXPECT_NE(last.payload.find("closed mid-frame"), std::string::npos)
            << last.payload;
        ::close(fd);
      });
  EXPECT_EQ(stats.sessions_failed, 1u);
}

TEST_F(ServeTest, CorruptIndexBucketFailsTheSessionAndTheRunByName) {
  // A chunk worker's error fails the run: the client gets kError naming
  // it, and Run() rethrows it after the drain instead of aborting.  Raise
  // the offset of a read's first seed in shard 0 of a written index
  // (geometry as in test_index_io's CorruptBucketOffsetIsANamedMappingError).
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gkgpu_serve_corrupt_" + std::to_string(::getpid()) + ".gki"))
          .string();
  BuildAndWriteIndexFile(path, ref_, 8);
  const std::string read(ref_.text().substr(1000, kReadLength));
  const std::int64_t code = EncodeKmer(read.data(), 8);
  ASSERT_GE(code, 0);
  std::uint64_t shard_table = 0, offsets = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(128);
    in.read(reinterpret_cast<char*>(&shard_table), sizeof(shard_table));
    in.seekg(static_cast<std::streamoff>(shard_table + 32));
    in.read(reinterpret_cast<char*>(&offsets), sizeof(offsets));
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t raised = 0xFFFFFF00u;
    f.seekp(static_cast<std::streamoff>(offsets + 4 * code));
    f.write(reinterpret_cast<const char*>(&raised), sizeof(raised));
  }
  const MappedIndexFile mapped = MappedIndexFile::Open(path);
  MapperConfig mcfg;
  mcfg.k = 8;
  mcfg.read_length = kReadLength;
  mcfg.error_threshold = kErrors;
  mcfg.verify_threads = 2;
  const ReadMapper mapper(mapped.reference(), mapped.seed_index().Alias(),
                          mapped.encoding(), mcfg);
  const serve::ServeConfig scfg = BaseConfig();
  serve::MapServer server(mapper, &gatekeeper_, scfg);
  std::string run_error = "Run() returned";
  std::thread run([&] {
    try {
      server.Run();
    } catch (const std::runtime_error& e) {
      run_error = e.what();
    }
  });
  for (int i = 0; i < 2000 && !server.serving(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string client_error = "no error";
  try {
    std::istringstream fastq(MakeFastq("c", {read}));
    std::ostringstream sam;
    serve::MapOverSocket(scfg.socket_path, fastq, sam);
  } catch (const std::runtime_error& e) {
    client_error = e.what();
  }
  run.join();  // the failed run stops the server by itself
  std::filesystem::remove(path);
  EXPECT_NE(client_error.find("corrupt index offsets"), std::string::npos)
      << client_error;
  EXPECT_NE(run_error.find("corrupt index offsets"), std::string::npos)
      << run_error;
  EXPECT_EQ(server.stats().sessions_failed, 1u);
}

TEST_F(ServeTest, ShutdownWithoutClientsDrainsCleanly) {
  const serve::ServeStats stats =
      WithServer(BaseConfig(), [](const std::string&) {});
  EXPECT_EQ(stats.sessions_accepted, 0u);
}

TEST(ServeProtocolTest, JobSpecRoundTripIgnoresUnknownKeys) {
  serve::JobSpec job;
  job.read_group = "rg7";
  job.mapq_cap = 42;
  job.report_secondary = true;
  const serve::JobSpec back =
      serve::ParseJobSpec(serve::SerializeJobSpec(job) + "future_key=1\n");
  EXPECT_EQ(back.read_group, "rg7");
  EXPECT_EQ(back.mapq_cap, 42);
  EXPECT_TRUE(back.report_secondary);
}

TEST(ServeProtocolTest, JobSpecMapqCapMustBeAValidSamMapq) {
  // SAM's MAPQ is 0-255 and 255 means "unavailable", so a cap is 0-254.
  for (const char* bad : {"300", "255", "-1", "abc", "12x", ""}) {
    try {
      serve::ParseJobSpec(std::string("mapq_cap=") + bad + "\n");
      ADD_FAILURE() << "accepted mapq_cap=" << bad;
    } catch (const std::runtime_error& e) {
      const std::string want =
          "mapq_cap='" + std::string(bad) + "' (want 0 to 254)";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
  serve::JobSpec job;
  job.mapq_cap = 254;
  EXPECT_EQ(serve::ParseJobSpec(serve::SerializeJobSpec(job)).mapq_cap, 254);
  job.mapq_cap = 0;
  EXPECT_EQ(serve::ParseJobSpec(serve::SerializeJobSpec(job)).mapq_cap, 0);
}

}  // namespace
}  // namespace gkgpu
