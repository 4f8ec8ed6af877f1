// In-memory byte streams for the end-to-end benchmark: FASTQ/FASTA bytes
// held in memory are read through ViewInput (no copy), and SAM output goes
// to SamSink, which counts the bytes and optionally keeps them.
#ifndef GKGPU_BENCH_E2E_IO_HPP
#define GKGPU_BENCH_E2E_IO_HPP

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>

namespace gkgpu::e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An istream source over bytes that must outlive the stream.
class ViewInput : public std::streambuf {
 public:
  explicit ViewInput(std::string_view bytes) {
    // The get area is never written through; streambuf just wants char*.
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

class SamSink : public std::streambuf {
 public:
  /// `capture` (optional) receives a copy of every byte.
  explicit SamSink(std::string* capture = nullptr) : capture_(capture) {}

  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    if (capture_ != nullptr) capture_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* capture_;
  std::uint64_t bytes_ = 0;
};

}  // namespace gkgpu::e2e

#endif  // GKGPU_BENCH_E2E_IO_HPP
