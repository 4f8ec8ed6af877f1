#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "mapper/mapq.hpp"

namespace gkgpu::serve {

namespace {

[[noreturn]] void FailErrno(const char* what) {
  const int err = errno;
  if (err == EAGAIN || err == EWOULDBLOCK) {
    throw std::runtime_error(std::string(what) + ": timed out");
  }
  throw std::runtime_error(std::string(what) + ": " + std::strerror(err));
}

void SendAll(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not process death.
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      FailErrno("serve: send");
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
}

enum class RecvStatus { kOk, kEof, kAgain };

/// Receives into data[*got, bytes); advances *got.  kAgain means the
/// socket's SO_RCVTIMEO tick expired with the range still incomplete —
/// the caller decides whether that is a resume or a timeout.  Throws only
/// on genuine I/O failure.
RecvStatus RecvChunk(int fd, void* data, std::size_t bytes,
                     std::size_t* got) {
  char* p = static_cast<char*>(data);
  while (*got < bytes) {
    const ssize_t n = ::recv(fd, p + *got, bytes - *got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kAgain;
      FailErrno("serve: recv");
    }
    if (n == 0) return RecvStatus::kEof;
    *got += static_cast<std::size_t>(n);
  }
  return RecvStatus::kOk;
}

}  // namespace

void WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error("serve: frame payload exceeds the 64 MiB cap");
  }
  std::uint32_t prelude[2] = {
      static_cast<std::uint32_t>(type),
      static_cast<std::uint32_t>(payload.size()),
  };
  SendAll(fd, prelude, sizeof(prelude));
  if (!payload.empty()) SendAll(fd, payload.data(), payload.size());
}

bool ReadFrame(int fd, Frame* out, const FrameReadLimits& limits) {
  using Clock = std::chrono::steady_clock;
  const auto wait_start = Clock::now();
  Clock::time_point frame_start{};
  bool frame_started = false;
  const auto secs_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto on_tick = [&] {
    if (!frame_started) {
      if (secs_since(wait_start) >= limits.idle_timeout_sec) {
        throw std::runtime_error("serve: recv: timed out");
      }
    } else if (secs_since(frame_start) >= limits.frame_deadline_sec) {
      throw std::runtime_error(
          "serve: frame stalled mid-transfer: timed out");
    }
  };

  std::uint32_t prelude[2] = {0, 0};
  std::size_t got = 0;
  for (;;) {
    const RecvStatus s = RecvChunk(fd, prelude, sizeof(prelude), &got);
    if (got > 0 && !frame_started) {
      frame_started = true;
      frame_start = Clock::now();
    }
    if (s == RecvStatus::kOk) break;
    if (s == RecvStatus::kEof) {
      if (got == 0) return false;  // clean EOF between frames
      throw std::runtime_error("serve: connection closed mid-frame");
    }
    on_tick();  // kAgain: resume unless a limit is exhausted
  }
  if (prelude[1] > kMaxFramePayload) {
    throw std::runtime_error("serve: frame length prefix exceeds the cap "
                             "(corrupt stream?)");
  }
  out->type = static_cast<FrameType>(prelude[0]);
  out->payload.resize(prelude[1]);
  std::size_t pgot = 0;
  while (pgot < prelude[1]) {
    const RecvStatus s =
        RecvChunk(fd, out->payload.data(), prelude[1], &pgot);
    if (s == RecvStatus::kOk) break;
    if (s == RecvStatus::kEof) {
      throw std::runtime_error("serve: connection closed mid-frame");
    }
    on_tick();
  }
  return true;
}

std::string SerializeJobSpec(const JobSpec& job) {
  std::string out;
  if (!job.read_group.empty()) {
    out += "read_group=" + job.read_group + "\n";
  }
  if (job.mapq_cap >= 0) {
    out += "mapq_cap=" + std::to_string(job.mapq_cap) + "\n";
  }
  if (job.report_secondary) out += "secondary=1\n";
  return out;
}

JobSpec ParseJobSpec(std::string_view payload) {
  JobSpec job;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("serve: malformed job option (want key=value)");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "read_group") {
      job.read_group = std::string(value);
    } else if (key == "mapq_cap") {
      const char* end = value.data() + value.size();
      const auto [last, ec] = std::from_chars(value.data(), end, job.mapq_cap);
      if (ec != std::errc() || last != end || job.mapq_cap < 0 ||
          job.mapq_cap > kMaxMapqCap) {
        throw std::runtime_error("serve: bad job option mapq_cap='" +
                                 std::string(value) + "' (want 0 to " +
                                 std::to_string(kMaxMapqCap) + ")");
      }
    } else if (key == "secondary") {
      job.report_secondary = value == "1";
    }
    // Unknown keys: ignored, so older servers accept newer clients.
  }
  return job;
}

}  // namespace gkgpu::serve
