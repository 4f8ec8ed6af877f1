#include "sim/read_sim.hpp"

#include <algorithm>
#include <cmath>

#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "util/rng.hpp"

namespace gkgpu {

namespace {

/// Sequences `length` bases starting at `origin`, applying the error
/// profile (the common machinery of the single-end and paired
/// simulators).  A deletion is drawn as always but applied only while the
/// genome has a base to spare past the ones the read still needs, so a
/// read that fits never runs off the genome's end.  Returns the number of
/// simulated errors.
int ApplyReadErrors(std::string_view genome, std::int64_t origin, int length,
                    const ReadErrorProfile& profile, Rng& rng,
                    std::string* seq) {
  int edits = 0;
  seq->clear();
  seq->reserve(static_cast<std::size_t>(length));
  std::size_t g = static_cast<std::size_t>(origin);
  while (static_cast<int>(seq->size()) < length && g < genome.size()) {
    const std::size_t needed = static_cast<std::size_t>(length) - seq->size();
    if (rng.Bernoulli(profile.del_rate) && genome.size() - g > needed) {
      ++g;  // skip a genome base
      ++edits;
      continue;
    }
    if (rng.Bernoulli(profile.ins_rate)) {
      seq->push_back(kBases[rng.NextU64() & 0x3u]);
      ++edits;
      continue;
    }
    char base = genome[g++];
    if (rng.Bernoulli(profile.sub_rate)) {
      const unsigned old_code = BaseToCode(base) & 0x3u;
      base = kBases[(old_code + 1 + rng.Uniform(3)) & 0x3u];
      ++edits;
    }
    if (rng.Bernoulli(profile.n_rate)) {
      base = 'N';
      ++edits;
    }
    seq->push_back(base);
  }
  while (static_cast<int>(seq->size()) < length) {
    seq->push_back(kBases[rng.NextU64() & 0x3u]);
  }
  return edits;
}

/// The bases kept past a read or fragment of `length` bases for deletions
/// to draw from: length / 2 + 8, or none on a chromosome of `genome_size`
/// bases too short to hold them, so that origins still span every
/// placement that fits (ApplyReadErrors then draws no deletion past the
/// end).
std::size_t DeletionSlack(std::size_t genome_size, int length) {
  const std::size_t slack = static_cast<std::size_t>(length) / 2 + 8;
  return genome_size > static_cast<std::size_t>(length) + slack ? slack : 0;
}

/// Standard normal deviate (Box-Muller on the deterministic generator).
double Gaussian(Rng& rng) {
  const double u1 = std::max(rng.UniformReal(), 1e-12);
  const double u2 = rng.UniformReal();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

std::vector<SimulatedRead> SimulateReads(std::string_view genome,
                                         std::size_t count, int length,
                                         const ReadErrorProfile& profile,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SimulatedRead> reads;
  reads.reserve(count);
  const std::size_t slack = DeletionSlack(genome.size(), length);
  const std::size_t max_origin =
      genome.size() > static_cast<std::size_t>(length) + slack
          ? genome.size() - length - slack
          : 0;
  for (std::size_t r = 0; r < count; ++r) {
    SimulatedRead read;
    read.origin = static_cast<std::int64_t>(rng.Uniform(max_origin + 1));
    read.edits =
        ApplyReadErrors(genome, read.origin, length, profile, rng, &read.seq);
    reads.push_back(std::move(read));
  }
  return reads;
}

std::vector<std::string> SimulateReadSequences(std::string_view genome,
                                               std::size_t count, int length,
                                               const ReadErrorProfile& profile,
                                               std::uint64_t seed) {
  std::vector<std::string> seqs;
  seqs.reserve(count);
  for (auto& r : SimulateReads(genome, count, length, profile, seed)) {
    seqs.push_back(std::move(r.seq));
  }
  return seqs;
}

std::vector<SimulatedPair> SimulatePairs(std::string_view genome,
                                         std::size_t count,
                                         const PairSimConfig& config,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const int L = config.read_length;
  std::vector<SimulatedPair> pairs;
  pairs.reserve(count);
  // Slack past the fragment end so R2's deletion draws stay in range.
  const auto slack =
      static_cast<std::int64_t>(DeletionSlack(genome.size(), L));
  std::string fwd2;
  for (std::size_t p = 0; p < count; ++p) {
    SimulatedPair pair;
    const double raw =
        config.insert_mean + config.insert_sd * Gaussian(rng);
    const std::int64_t max_frag =
        std::max<std::int64_t>(L, static_cast<std::int64_t>(genome.size()) -
                                      slack);
    pair.fragment_length = static_cast<int>(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::llround(raw)), L, max_frag));
    const std::int64_t max_start = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(genome.size()) - pair.fragment_length -
               slack);
    pair.fragment_start =
        static_cast<std::int64_t>(rng.Uniform(
            static_cast<std::uint64_t>(max_start) + 1));
    pair.origin1 = pair.fragment_start;
    pair.origin2 = pair.fragment_start + pair.fragment_length - L;
    pair.edits1 = ApplyReadErrors(genome, pair.origin1, L, config.profile,
                                  rng, &pair.seq1);
    pair.edits2 =
        ApplyReadErrors(genome, pair.origin2, L, config.profile, rng, &fwd2);
    ReverseComplementInto(fwd2, &pair.seq2);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

}  // namespace gkgpu
