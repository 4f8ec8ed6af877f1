#include "sim/pairgen.hpp"

#include <algorithm>
#include <cassert>

#include "encode/dna.hpp"
#include "util/rng.hpp"

namespace gkgpu {

namespace {

std::string RandomSequence(Rng& rng, std::size_t length) {
  std::string s(length, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

}  // namespace

SequencePair MakePairWithEdits(int length, int edits, double indel_frac,
                               std::uint64_t seed) {
  Rng rng(seed);
  // Build the read by walking a slightly longer reference with `edits`
  // mutation events scattered along the way, then cut the reference
  // segment to the read length (seed extension hands the filter
  // equal-length windows).
  const std::size_t full_len =
      static_cast<std::size_t>(length + edits + 8);
  const std::string full_ref = RandomSequence(rng, full_len);
  std::string read;
  read.reserve(static_cast<std::size_t>(length));
  // Pick distinct edit positions in read coordinates.
  std::vector<bool> edit_here(static_cast<std::size_t>(length), false);
  int placed = 0;
  while (placed < edits && placed < length) {
    const auto p = static_cast<std::size_t>(rng.Uniform(length));
    if (!edit_here[p]) {
      edit_here[p] = true;
      ++placed;
    }
  }
  std::size_t g = 0;
  while (static_cast<int>(read.size()) < length) {
    const std::size_t p = read.size();
    if (p < edit_here.size() && edit_here[p]) {
      if (rng.Bernoulli(indel_frac)) {
        if (rng.Bernoulli(0.5)) {
          ++g;  // deletion in the read
          edit_here[p] = false;  // the position still needs a base
          continue;
        }
        read.push_back(kBases[rng.NextU64() & 0x3u]);  // insertion
        continue;
      }
      const unsigned old_code = BaseToCode(full_ref[g]) & 0x3u;
      read.push_back(kBases[(old_code + 1 + rng.Uniform(3)) & 0x3u]);
      ++g;
      continue;
    }
    read.push_back(full_ref[g]);
    ++g;
  }
  return SequencePair{std::move(read),
                      full_ref.substr(0, static_cast<std::size_t>(length))};
}

std::vector<SequencePair> GeneratePairs(std::size_t count,
                                        const PairProfile& profile,
                                        std::uint64_t seed) {
  assert(!profile.bands.empty() || profile.random_pair_rate > 0.0);
  Rng rng(seed);
  double total_weight = profile.random_pair_rate;
  for (const auto& b : profile.bands) total_weight += b.weight;

  std::vector<SequencePair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double pick = rng.UniformReal() * total_weight;
    SequencePair pair;
    if (pick < profile.random_pair_rate) {
      pair.read = RandomSequence(rng, static_cast<std::size_t>(profile.length));
      pair.ref = RandomSequence(rng, static_cast<std::size_t>(profile.length));
    } else {
      pick -= profile.random_pair_rate;
      const PairProfile::Band* chosen = &profile.bands.back();
      for (const auto& b : profile.bands) {
        if (pick < b.weight) {
          chosen = &b;
          break;
        }
        pick -= b.weight;
      }
      // At short lengths d(f) clamps to one edit, which can invert a band
      // (below 17 bp {d(0.05) + 1, d(0.12)} is {2, 1}): such a band gives
      // its lower bound.
      const int span = chosen->max_edits - chosen->min_edits + 1;
      const int edits =
          span > 0 ? chosen->min_edits + static_cast<int>(rng.Uniform(span))
                   : chosen->min_edits;
      pair = MakePairWithEdits(profile.length, edits, chosen->indel_frac,
                               rng.NextU64());
    }
    if (profile.undefined_rate > 0.0 && rng.Bernoulli(profile.undefined_rate)) {
      auto& target = rng.Bernoulli(0.5) ? pair.read : pair.ref;
      target[rng.Uniform(target.size())] = 'N';
    }
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

PairProfile MrFastCandidateProfile(int length) {
  PairProfile p;
  p.length = length;
  const auto d = [length](double f) {
    return std::max(1, static_cast<int>(f * length));
  };
  p.bands = {
      {0.004, 0, 0, 0.0},                 // exact candidates
      {0.017, 1, d(0.05), 0.25},          // true positives near threshold
      {0.06, d(0.05) + 1, d(0.12), 0.3},  // just-above-threshold mass
      {0.21, d(0.12) + 1, d(0.25), 0.3},
      {0.28, d(0.25) + 1, d(0.40), 0.3},
  };
  p.random_pair_rate = 0.43;  // repeat-induced junk candidates
  p.undefined_rate = 0.003;
  return p;
}

PairProfile LowEditProfile(int length) {
  PairProfile p;
  p.length = length;
  const auto d = [length](double f) {
    return std::max(1, static_cast<int>(f * length));
  };
  p.bands = {
      {0.02, 0, 0, 0.0},
      {0.16, 1, d(0.04), 0.25},
      {0.30, d(0.04) + 1, d(0.10), 0.3},
      {0.34, d(0.10) + 1, d(0.20), 0.3},
      {0.14, d(0.20) + 1, d(0.30), 0.3},
  };
  p.random_pair_rate = 0.04;
  p.undefined_rate = 0.001;
  return p;
}

PairProfile HighEditProfile(int length) {
  PairProfile p;
  p.length = length;
  const auto d = [length](double f) {
    return std::max(1, static_cast<int>(f * length));
  };
  p.bands = {
      {0.002, 0, 0, 0.0},
      {0.008, 1, d(0.05), 0.25},
      {0.04, d(0.10) + 1, d(0.25), 0.3},
      {0.10, d(0.25) + 1, d(0.40), 0.3},
  };
  p.random_pair_rate = 0.85;
  p.undefined_rate = 0.00001;
  return p;
}

PairProfile Minimap2Profile(int length) {
  PairProfile p;
  p.length = length;
  const auto d = [length](double f) {
    return std::max(1, static_cast<int>(f * length));
  };
  p.bands = {
      {0.027, 0, 0, 0.0},                  // ~2.7% exact (Sup. Table S.5)
      {0.05, 1, d(0.08), 0.3},
      {0.10, d(0.08) + 1, d(0.20), 0.3},
      {0.30, d(0.20) + 1, d(0.40), 0.3},
  };
  p.random_pair_rate = 0.52;
  p.undefined_rate = 0.001;
  return p;
}

PairProfile BwaMemProfile(int length) {
  PairProfile p;
  p.length = length;
  const auto d = [length](double f) {
    return std::max(1, static_cast<int>(f * length));
  };
  p.bands = {
      {0.35, 0, 0, 0.0},  // BWA-MEM hands the aligner high-identity pairs
      {0.30, 1, d(0.06), 0.3},
      {0.15, d(0.06) + 1, d(0.12), 0.3},
      {0.10, d(0.12) + 1, d(0.25), 0.3},
  };
  p.random_pair_rate = 0.10;
  p.undefined_rate = 0.002;
  return p;
}

}  // namespace gkgpu
