// Wire protocol of the mapping daemon: length-prefixed frames over a
// Unix-domain stream socket.  Every frame is an 8-byte little-endian
// prelude — u32 type, u32 payload length — followed by the payload.
//
//   client -> server   kJob         key=value job options, one per line
//                      kData        a chunk of raw FASTQ bytes
//                      kEnd         no more input for this job
//                      kStatsRequest  instead of kJob: scrape the server's
//                                   metrics registry; the reply is one
//                                   kStats frame of Prometheus text
//                                   exposition followed by kDone
//   server -> client   kSamHeader   the @HD/@SQ/@RG/@PG header bytes
//                      kSamRecords  a chunk of SAM record lines
//                      kStats       key=value job statistics (after a job)
//                                   or Prometheus exposition (after a
//                                   kStatsRequest)
//                      kError       human-readable failure; job is dead
//                      kDone        job complete, no further frames
//
// FASTQ chunks may split records anywhere (the server's FastqParser
// reassembles them);
// SAM chunks always split on line boundaries.  Frames are capped at
// kMaxFramePayload so a corrupt length prefix cannot allocate the moon.
#ifndef GKGPU_SERVE_PROTOCOL_HPP
#define GKGPU_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace gkgpu::serve {

enum class FrameType : std::uint32_t {
  kJob = 1,
  kData = 2,
  kEnd = 3,
  kStatsRequest = 4,
  kSamHeader = 10,
  kSamRecords = 11,
  kStats = 12,
  kError = 13,
  kDone = 14,
};

inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB
inline constexpr std::size_t kFramePreludeBytes = 8;

struct Frame {
  FrameType type = FrameType::kJob;
  std::string payload;
};

/// Blocking frame write (loops over partial writes, EINTR-safe, no
/// SIGPIPE).  Throws std::runtime_error on I/O failure.
void WriteFrame(int fd, FrameType type, std::string_view payload);

/// Deadlines for ReadFrame on a socket whose SO_RCVTIMEO is set to a
/// short polling tick.  Both are wall-clock seconds; a value <= 0 means
/// the first receive-timeout tick in that state throws.
struct FrameReadLimits {
  /// Quiet time allowed while waiting for a frame to *start* (no byte of
  /// the prelude received yet) — the per-request idle timeout.
  double idle_timeout_sec = 0;
  /// Total time allowed to finish one frame once its first byte arrived.
  /// A slow-but-active sender may straddle any number of receive-timeout
  /// ticks mid-frame as long as the whole frame lands inside this budget.
  double frame_deadline_sec = 0;
};

/// Reads one frame.  On a socket without a receive timeout it blocks
/// until the frame is whole; on one with SO_RCVTIMEO set, an expiry is
/// not an error until `limits` says so — the read resumes and
/// accumulates, so a client that stalls between the bytes of one frame is
/// distinguished from one that sends a malformed stream.  Returns false
/// on clean EOF at a frame boundary; throws std::runtime_error "timed
/// out" once a limit is exceeded, "connection closed mid-frame" on
/// mid-frame EOF, and on I/O failure or an oversized length prefix.
bool ReadFrame(int fd, Frame* out, const FrameReadLimits& limits = {});

/// Per-job options carried in the kJob frame.
struct JobSpec {
  std::string read_group;        // RG:Z tag ("" = none)
  int mapq_cap = -1;             // -1 = server default
  bool report_secondary = false;
};

std::string SerializeJobSpec(const JobSpec& job);
/// Parses a kJob payload; unknown keys are ignored (forward compatible).
/// Throws std::runtime_error on malformed lines and on a mapq_cap that is
/// not an integer from 0 to kMaxMapqCap.
JobSpec ParseJobSpec(std::string_view payload);

}  // namespace gkgpu::serve

#endif  // GKGPU_SERVE_PROTOCOL_HPP
