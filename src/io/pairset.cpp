#include "io/pairset.hpp"

#include <fstream>
#include <stdexcept>
#include <string>

namespace gkgpu {

void WritePairSet(std::ostream& out, const std::vector<SequencePair>& pairs) {
  out << "# gkgpu-pairset v1 pairs=" << pairs.size()
      << " length=" << (pairs.empty() ? 0 : pairs.front().read.size()) << '\n';
  for (const auto& p : pairs) {
    out << p.read << '\t' << p.ref << '\n';
  }
}

void WritePairSetFile(const std::string& path,
                      const std::vector<SequencePair>& pairs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("pairset: cannot open " + path);
  WritePairSet(out, pairs);
}

std::vector<SequencePair> ReadPairSet(std::istream& in) {
  std::vector<SequencePair> pairs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("pairset: malformed line: " + line);
    }
    SequencePair p;
    p.read = line.substr(0, tab);
    p.ref = line.substr(tab + 1);
    if (p.read.size() != p.ref.size()) {
      throw std::runtime_error("pairset: length mismatch on line: " + line);
    }
    // Every consumer filters the set as one batch of one read length.
    if (!pairs.empty() && p.read.size() != pairs.front().read.size()) {
      throw std::runtime_error(
          "pairset: line " + std::to_string(line_no) + " has length " +
          std::to_string(p.read.size()) + ", but the first pair's is " +
          std::to_string(pairs.front().read.size()));
    }
    pairs.push_back(std::move(p));
  }
  return pairs;
}

std::vector<SequencePair> ReadPairSetFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("pairset: cannot open " + path);
  return ReadPairSet(in);
}

}  // namespace gkgpu
