#include "serve/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace gkgpu::serve {

namespace {

constexpr std::size_t kChunkBytes = 256u << 10;

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  const std::uint32_t prelude[2] = {
      static_cast<std::uint32_t>(type),
      static_cast<std::uint32_t>(payload.size()),
  };
  out->append(reinterpret_cast<const char*>(prelude), sizeof(prelude));
  out->append(payload);
}

/// Throws naming the call that failed ("map-client" or "stats").
[[noreturn]] void Fail(const char* who, const std::string& why) {
  throw std::runtime_error(std::string(who) + ": " + why);
}

/// Connects to the daemon at `socket_path`; failures name `who`.
int Connect(const std::string& socket_path, const char* who) {
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Fail(who, "invalid socket path");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Fail(who, "cannot create socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    Fail(who, "cannot connect to " + socket_path + ": " + err);
  }
  return fd;
}

std::uint64_t StatValue(std::string_view payload, std::string_view key) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq != std::string_view::npos && line.substr(0, eq) == key) {
      return std::stoull(std::string(line.substr(eq + 1)));
    }
  }
  return 0;
}

}  // namespace

ClientStats MapOverSocket(const std::string& socket_path, std::istream& fastq,
                          std::ostream& sam, const JobSpec& job) {
  constexpr const char* kWho = "map-client";
  const int fd = Connect(socket_path, kWho);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  ClientStats stats;
  std::string outbound;
  AppendFrame(&outbound, FrameType::kJob, SerializeJobSpec(job));
  std::string inbound;
  std::string chunk(kChunkBytes, '\0');
  bool input_done = false;
  bool done = false;

  try {
    while (!done) {
      // Refill the outbound buffer from the FASTQ stream; kEnd follows
      // the final chunk.
      if (!input_done && outbound.size() < kChunkBytes) {
        fastq.read(chunk.data(),
                   static_cast<std::streamsize>(chunk.size()));
        const std::streamsize got = fastq.gcount();
        if (got > 0) {
          AppendFrame(&outbound, FrameType::kData,
                      std::string_view(chunk.data(),
                                       static_cast<std::size_t>(got)));
        }
        if (got == 0 || fastq.eof()) {
          AppendFrame(&outbound, FrameType::kEnd, {});
          input_done = true;
        }
      }

      pollfd pfd{fd, POLLIN, 0};
      if (!outbound.empty()) pfd.events |= POLLOUT;
      const int n = ::poll(&pfd, 1, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        Fail(kWho, std::string("poll: ") + std::strerror(errno));
      }

      if ((pfd.revents & POLLOUT) != 0 && !outbound.empty()) {
        const ssize_t sent =
            ::send(fd, outbound.data(), outbound.size(), MSG_NOSIGNAL);
        if (sent < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            Fail(kWho, std::string("send: ") + std::strerror(errno));
          }
        } else {
          outbound.erase(0, static_cast<std::size_t>(sent));
        }
      }

      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[64 << 10];
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            Fail(kWho, std::string("recv: ") + std::strerror(errno));
          }
        } else if (got == 0) {
          Fail(kWho, "server closed the connection before kDone");
        } else {
          inbound.append(buf, static_cast<std::size_t>(got));
        }
      }

      // Parse every complete frame in the inbound buffer.
      std::size_t pos = 0;
      while (inbound.size() - pos >= kFramePreludeBytes) {
        std::uint32_t prelude[2];
        std::memcpy(prelude, inbound.data() + pos, sizeof(prelude));
        if (prelude[1] > kMaxFramePayload) {
          Fail(kWho, "oversized response frame (corrupt stream?)");
        }
        if (inbound.size() - pos - kFramePreludeBytes < prelude[1]) break;
        const std::string_view payload(
            inbound.data() + pos + kFramePreludeBytes, prelude[1]);
        pos += kFramePreludeBytes + prelude[1];
        switch (static_cast<FrameType>(prelude[0])) {
          case FrameType::kSamHeader:
          case FrameType::kSamRecords:
            sam.write(payload.data(),
                      static_cast<std::streamsize>(payload.size()));
            break;
          case FrameType::kStats:
            stats.reads = StatValue(payload, "reads");
            stats.records = StatValue(payload, "records");
            break;
          case FrameType::kError:
            Fail(kWho, "server error: " + std::string(payload));
          case FrameType::kDone:
            done = true;
            break;
          default:
            Fail(kWho, "unexpected response frame type");
        }
      }
      inbound.erase(0, pos);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return stats;
}

std::string QueryStats(const std::string& socket_path) {
  constexpr const char* kWho = "stats";
  const int fd = Connect(socket_path, kWho);
  std::string exposition;
  try {
    WriteFrame(fd, FrameType::kStatsRequest, {});
    Frame frame;
    for (;;) {
      if (!ReadFrame(fd, &frame)) {
        Fail(kWho, "server closed the connection before kDone");
      }
      switch (frame.type) {
        case FrameType::kStats:
          exposition.append(frame.payload);
          break;
        case FrameType::kError:
          Fail(kWho, "server error: " + frame.payload);
        case FrameType::kDone:
          ::close(fd);
          return exposition;
        default:
          Fail(kWho, "unexpected response frame type");
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace gkgpu::serve
