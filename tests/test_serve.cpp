// In-process tests for the mapping daemon (serve/server.hpp +
// serve/client.hpp): byte parity with the standalone FASTQ-to-SAM stream,
// concurrent clients demultiplexed onto their own byte-identical SAM
// streams (with cross-request chunk coalescing observed in the stats),
// wrong-length and malformed inputs, and shutdown drain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "io/reference.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
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
      : ref_("chr_serve", GenerateGenome(20000, 31)),
        mapper_(MakeMapper()),
        devices_(gpusim::MakeSetup1(1)) {
    for (auto& d : devices_) device_ptrs_.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = kReadLength;
    cfg.error_threshold = kErrors;
    engine_ = std::make_unique<GateKeeperGpuEngine>(cfg, device_ptrs_);
    engine_->LoadReference(ref_.text());
  }

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
    std::unique_ptr<GateKeeperGpuEngine> engine;
    {
      EngineConfig cfg;
      cfg.read_length = kReadLength;
      cfg.error_threshold = kErrors;
      engine = std::make_unique<GateKeeperGpuEngine>(cfg, device_ptrs_);
      engine->LoadReference(ref_.text());
    }
    pipeline::ReadToSamConfig scfg;
    scfg.read_group = read_group;
    std::ostringstream sam;
    WriteSamHeader(sam, mapper.reference(), read_group);
    std::istringstream fastq(fastq_text);
    pipeline::StreamFastqToSam(fastq, mapper, engine.get(), scfg, &sam);
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
    serve::MapServer server(mapper_, engine_.get(), scfg);
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
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<gpusim::Device*> device_ptrs_;
  std::unique_ptr<GateKeeperGpuEngine> engine_;
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

}  // namespace
}  // namespace gkgpu
