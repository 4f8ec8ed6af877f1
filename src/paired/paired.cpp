#include "paired/paired.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "encode/revcomp.hpp"
#include "mapper/mapq.hpp"
#include "mapper/sam.hpp"
#include "obs/names.hpp"
#include "pipeline/chunk_filter.hpp"
#include "pipeline/ordered_chunks.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gkgpu {

namespace {

/// One pair's state from seeding to finalization.  c1/c2 are the *pruned*
/// oriented candidate lists; e1/e2 the banded edit distance per candidate
/// (-1 = filter rejected or verification refuted).
struct PairTask {
  FastqRecord r1, r2;
  std::string rc1, rc2;  // reverse complements (verification + SAM)
  std::vector<OrientedCandidate> c1, c2;
  std::vector<int> e1, e2;
  std::uint64_t seeded = 0;  // oriented candidates before pairing
  bool skipped = false;      // mate length != read length
};

/// True when `a` has at least one concordant (opposite-strand, FR
/// orientation, fragment <= max_insert, junction-free) partner in
/// `other`.  `other` is laid out as CollectCandidatesOriented emits it:
/// the forward candidates first, then the reverse ones, each sorted by
/// position.
bool HasConcordantPartner(const ReferenceSet& ref, int L,
                          std::int64_t max_insert, const OrientedCandidate& a,
                          const std::vector<OrientedCandidate>& other) {
  const auto by_pos = [](const OrientedCandidate& c, std::int64_t pos) {
    return c.pos < pos;
  };
  const auto split = std::partition_point(
      other.begin(), other.end(),
      [](const OrientedCandidate& c) { return c.strand == 0; });
  if (a.strand == 0) {
    // Forward candidate: a reverse partner downstream, fragment
    // [a.pos, partner.pos + L) no longer than max_insert.
    const std::int64_t hi = a.pos + max_insert - L;
    for (auto it = std::lower_bound(split, other.end(), a.pos, by_pos);
         it != other.end() && it->pos <= hi; ++it) {
      const std::int64_t frag = it->pos + L - a.pos;
      if (ref.WindowWithinChromosome(a.pos, static_cast<int>(frag))) {
        return true;
      }
    }
  } else {
    // Reverse candidate: a forward partner upstream.
    const std::int64_t lo = a.pos + L - max_insert;
    for (auto it = std::lower_bound(other.begin(), split, lo, by_pos);
         it != split && it->pos <= a.pos; ++it) {
      const std::int64_t frag = a.pos + L - it->pos;
      if (ref.WindowWithinChromosome(it->pos, static_cast<int>(frag))) {
        return true;
      }
    }
  }
  return false;
}

/// The pairing prune: keep only candidates that some opposite-strand mate
/// candidate can complete into a concordant pair.  When no concordant
/// combination exists at all (or a mate produced no candidates) the lists
/// are left untouched — discordant and single-end mappings must stay
/// reachable.
void PruneConcordant(const ReferenceSet& ref, int L, std::int64_t max_insert,
                     std::vector<OrientedCandidate>* c1,
                     std::vector<OrientedCandidate>* c2) {
  if (c1->empty() || c2->empty()) return;
  std::vector<OrientedCandidate> keep1;
  std::vector<OrientedCandidate> keep2;
  for (const OrientedCandidate& a : *c1) {
    if (HasConcordantPartner(ref, L, max_insert, a, *c2)) keep1.push_back(a);
  }
  if (keep1.empty()) return;  // no concordance possible: keep all
  for (const OrientedCandidate& a : *c2) {
    if (HasConcordantPartner(ref, L, max_insert, a, *c1)) keep2.push_back(a);
  }
  assert(!keep2.empty());  // concordance is symmetric
  *c1 = std::move(keep1);
  *c2 = std::move(keep2);
}

static_assert(kSeedChunkReads % 2 == 0, "a seeding chunk holds whole pairs");

/// Seeds a chunk of pairs, both mates of every pair through one SeedReads
/// call, and applies the pairing prune.  Unvoted: PruneConcordant keeps
/// every candidate of a pair with no concordant placement, so voting before
/// it could change which verified candidates reach the finalizer.
void SeedPairTasks(const ReadMapper& mapper, int L, std::int64_t max_insert,
                   std::span<PairTask> tasks, SeedChunk* chunk) {
  assert(2 * tasks.size() <= kSeedChunkReads);
  std::array<std::string_view, kSeedChunkReads> mates;
  std::size_t n = 0;
  for (PairTask& t : tasks) {
    t.skipped = static_cast<int>(t.r1.seq.size()) != L ||
                static_cast<int>(t.r2.seq.size()) != L;
    if (t.skipped) {
      // Tasks are reused across chunks: clear what an earlier pair left.
      t.c1.clear();
      t.c2.clear();
      t.e1.clear();
      t.e2.clear();
      t.seeded = 0;
      continue;
    }
    mates[n++] = t.r1.seq;
    mates[n++] = t.r2.seq;
  }
  mapper.SeedReads(std::span(mates).first(n), chunk, SeedVote::kOff);
  std::size_t m = 0;
  for (PairTask& t : tasks) {
    if (t.skipped) continue;
    t.rc1.swap(chunk->rc(m));
    t.c1.assign(chunk->candidates(m).begin(), chunk->candidates(m).end());
    ++m;
    t.rc2.swap(chunk->rc(m));
    t.c2.assign(chunk->candidates(m).begin(), chunk->candidates(m).end());
    ++m;
    t.seeded = t.c1.size() + t.c2.size();
    PruneConcordant(mapper.reference(), L, max_insert, &t.c1, &t.c2);
    t.e1.assign(t.c1.size(), -1);
    t.e2.assign(t.c2.size(), -1);
  }
}

/// A mate's selected mapping (or lack of one) entering SAM emission.
struct MateBest {
  bool mapped = false;
  std::int64_t pos = 0;  // global
  std::uint8_t strand = 0;
  int edit = -1;
  bool rescued = false;
  /// Computed mapping quality (mapper/mapq.hpp); 0 when unmapped.
  int mapq = 0;
  /// Rescue found >= 2 distinct minimum-edit placements in the window
  /// (a repeat): the chosen one is a coin flip and must score MAPQ 0,
  /// exactly like ties on every other path.
  bool ambiguous = false;
  /// Reference bases the placement consumes: the read length for
  /// verified candidates (banded verification is length-vs-length), the
  /// fit alignment's span for rescued placements — fragment lengths and
  /// duplicate signatures must use this, not the read length, or indel
  /// rescues understate TLEN.
  int ref_span = 0;
  /// Rescue-path CIGAR from the fit aligner's traceback (a rescued
  /// placement may span != read-length reference bases, so the emitter
  /// must not recompute it from a fixed window); empty = recompute.
  std::string cigar;
};

/// Flow-cell coordinates parsed from an Illumina-style read name, for
/// the optical-duplicate pixel distance.
struct TileCoord {
  bool valid = false;
  std::int64_t tile = 0;
  std::int64_t x = 0;
  std::int64_t y = 0;
};

/// Parses the trailing tile:x:y of a colon-delimited read name (both the
/// 5-field "machine:lane:tile:x:y" and 7-field CASAVA 1.8+
/// "machine:run:flowcell:lane:tile:x:y" layouts end the same way).  The
/// name's first whitespace token is used, with any "/1" / "/2" mate
/// suffix stripped.  Anything that doesn't fit returns invalid — such
/// reads simply never classify as optical.
TileCoord ParseTileCoord(std::string_view name) {
  const std::size_t ws = name.find_first_of(" \t");
  if (ws != std::string_view::npos) name = name.substr(0, ws);
  if (name.size() >= 2 && name[name.size() - 2] == '/' &&
      (name.back() == '1' || name.back() == '2')) {
    name = name.substr(0, name.size() - 2);
  }
  std::int64_t fields[3] = {0, 0, 0};  // tile, x, y (last three fields)
  int parsed = 0;
  TileCoord out;
  while (parsed < 3) {
    const std::size_t colon = name.rfind(':');
    const std::string_view field =
        colon == std::string_view::npos ? name : name.substr(colon + 1);
    if (field.empty()) return out;
    std::int64_t value = 0;
    for (const char c : field) {
      if (c < '0' || c > '9') return out;
      value = value * 10 + (c - '0');
    }
    fields[2 - parsed] = value;
    ++parsed;
    if (colon == std::string_view::npos) {
      // Fewer than 5 fields total: tile:x:y alone (a bare "100:8:9") is
      // not an Illumina name, just three numbers.
      return out;
    }
    name = name.substr(0, colon);
  }
  // At least two more fields must precede tile:x:y (machine + lane).
  if (std::count(name.begin(), name.end(), ':') < 1) return out;
  out.valid = true;
  out.tile = fields[0];
  out.x = fields[1];
  out.y = fields[2];
  return out;
}

/// Best / runner-up penalty summary of one mate's verified placements,
/// via the shared scan in mapper/mapq.cpp.
EditSummary Summarize(const std::vector<MateBest>& v) {
  std::vector<int> edits;
  edits.reserve(v.size());
  for (const MateBest& m : v) edits.push_back(m.edit);
  return SummarizeEdits(edits);
}

/// Everything FinalizePair needs besides the pair itself.  One instance
/// per mapping run; finalization happens strictly in pair input order, so
/// the model evolves identically and the SAM output is byte-identical
/// whatever the chunk size or worker count.
struct PairFinalizer {
  const ReadMapper* mapper = nullptr;
  const PairedConfig* cfg = nullptr;
  int L = 0;
  int e = 0;
  InsertSizeModel model{};
  PairedStats* stats = nullptr;
  /// Whether records are formatted at all (false: statistics only).
  bool write_sam = false;
  /// The records of the pairs finalized since the caller last drained it.
  std::string sam;

  void Finalize(const PairTask& task);

 private:
  double InsertPenalty(std::int64_t frag) const;
  MateBest Rescue(const MateBest& anchor, const std::string& fwd,
                  const std::string& rc);
  /// True (and remembers the signature) when this proper pair's fragment —
  /// keyed on (chromosome, position, strand, TLEN) — was already seen, so
  /// the later copy is the duplicate.  Finalization runs strictly in pair
  /// input order, so marking is deterministic.
  /// When optical_dup_distance > 0 and the later copy's tile:x:y sits
  /// within that many pixels of an earlier copy on the same tile, *optical
  /// is set (the record is still a duplicate either way).
  bool IsDuplicateFragment(const MateBest& fwd, std::uint8_t first_strand,
                           std::int64_t frag, const std::string& r1_name,
                           bool* optical);
  /// Discordant analogue: both ends' (position, strand), normalized
  /// position-major so mate roles don't split a signature.
  bool IsDuplicateDiscordant(const MateBest& a, const MateBest& b);
  /// Single-end analogue: the mapped mate's (position, strand) — there is
  /// no fragment length to key on when the partner is lost.
  bool IsDuplicateSingleEnd(const MateBest& mapped);
  void EmitMate(const FastqRecord& rec, const std::string& rc, bool first,
                const MateBest& me, const MateBest& mate, std::int64_t tlen,
                bool proper, bool duplicate);

  LocalAligner rescue_aligner_;
  /// Fragment signatures of emitted proper pairs (mark_duplicates only):
  /// global forward-mate position (chromosome + local position in one),
  /// first-mate strand, fragment length (|TLEN|) — mapped to the flow-cell
  /// coordinates of every copy seen so far (coordinates are only parsed
  /// and stored when optical_dup_distance > 0; the vector stays empty
  /// otherwise, so plain duplicate marking costs what the old set did).
  std::map<std::tuple<std::int64_t, std::uint8_t, std::int64_t>,
           std::vector<TileCoord>>
      seen_fragments_;
  /// Signatures of emitted discordant pairs and single-end records, kept
  /// apart from each other and from the proper-pair set: a record class
  /// says how the fragment was sequenced, and cross-class collisions
  /// would mark records that share one locus by coincidence.
  std::set<std::tuple<std::int64_t, std::uint8_t, std::int64_t, std::uint8_t>>
      seen_discordant_;
  std::set<std::tuple<std::int64_t, std::uint8_t>> seen_single_;
};

/// Insert-size term of the pair score: squared z-distance from the fitted
/// mean, scaled so 4 sigma costs two edits; zero until the model is
/// fitted.  Capped so one outlier insert cannot beat an edit-distance gap
/// of more than ~8.
double PairFinalizer::InsertPenalty(std::int64_t frag) const {
  if (!model.fitted()) return 0.0;
  const double sd = std::max(model.sigma(), 1.0);
  const double z = (static_cast<double>(frag) - model.mean()) / sd;
  return std::min(z * z / 8.0, 8.0);
}

/// Smith-Waterman-style fit alignment over the insert window the model
/// predicts for the lost mate (align/local.hpp): one banded DP over the
/// whole window replaces the per-offset banded scans, recovers placements
/// whose reference span differs from the read length (indels the fixed
/// L-wide windows could never fit), and yields the CIGAR directly from
/// the traceback.  Deterministic.
MateBest PairFinalizer::Rescue(const MateBest& anchor, const std::string& fwd,
                               const std::string& rc) {
  const ReferenceSet& ref = mapper->reference();
  std::int64_t frag_lo = L;
  std::int64_t frag_hi = cfg->max_insert;
  if (model.fitted()) {
    const double mu = model.mean();
    const double sd = model.sigma();
    frag_lo = std::max<std::int64_t>(
        L, static_cast<std::int64_t>(std::llround(mu - 4.0 * sd)));
    frag_hi = std::min<std::int64_t>(
        cfg->max_insert,
        static_cast<std::int64_t>(std::llround(mu + 4.0 * sd)));
    if (frag_hi < frag_lo) {
      frag_lo = L;
      frag_hi = cfg->max_insert;
    }
  }
  MateBest best;
  best.strand = anchor.strand == 0 ? 1 : 0;
  // Bounds on the placement's first reference base, as before; the window
  // handed to the aligner extends e bases past the last admissible start's
  // read span so an indel-bearing placement is not clipped at the edge.
  std::int64_t lo, hi;
  if (anchor.strand == 0) {
    lo = anchor.pos + frag_lo - L;
    hi = anchor.pos + frag_hi - L;
  } else {
    lo = anchor.pos + L - frag_hi;
    hi = anchor.pos + L - frag_lo;
  }
  const int chrom = ref.Locate(anchor.pos);
  assert(chrom >= 0);
  const ChromosomeInfo& info = ref.chromosome(static_cast<std::size_t>(chrom));
  lo = std::max(lo, info.offset);
  hi = std::min(hi, info.offset + info.length - L);
  if (hi < lo) return best;
  ++stats->rescue_invocations;
  const std::int64_t window_end =
      std::min(info.offset + info.length, hi + L + e);
  const std::string& oriented = best.strand != 0 ? rc : fwd;
  const std::string_view genome = mapper->genome();

  // The fit DP is O(read x window); a huge --max-insert window (before
  // the insert model fits) would balloon that matrix, so the window is
  // scanned in fixed-width chunks overlapping by L + 2e — wide enough
  // that every placement lies wholly inside some chunk.  Starts are
  // bounded to [lo, hi] inside the DP (max_begin): the e-base window
  // extension only licenses an admissible start to *span* past hi + L,
  // and a better placement beginning beyond hi cannot shadow an
  // in-range one.
  constexpr std::int64_t kFitChunk = 8192;
  const std::int64_t step =
      std::max<std::int64_t>(1, kFitChunk - (L + 2 * e));
  LocalAlignment fit;
  std::int64_t fit_pos = 0;
  bool ambiguous = false;
  for (std::int64_t cs = lo; cs < window_end && cs <= hi; cs += step) {
    const std::int64_t ce = std::min(window_end, cs + kFitChunk);
    const std::string_view chunk(genome.data() + cs,
                                 static_cast<std::size_t>(ce - cs));
    const LocalAlignment cf =
        rescue_aligner_.BestFit(oriented, chunk, e, hi - cs);
    if (cf.edits < 0) continue;
    const std::int64_t pos = cs + cf.ref_begin;
    if (fit.edits < 0 || cf.edits < fit.edits) {
      fit = cf;
      fit_pos = pos;
      ambiguous = cf.placements > 1;
    } else if (cf.edits == fit.edits) {
      // Ambiguity at the tied-best level: a distinct locus in a later
      // chunk, or multiple placements inside this chunk (an overlap
      // re-find of the same placement alone is not ambiguity).
      if (cf.placements > 1 || std::abs(pos - fit_pos) > std::max(1, e)) {
        ambiguous = true;
      }
    }
  }
  if (fit.edits < 0) return best;
  best.mapped = true;
  best.rescued = true;
  best.pos = fit_pos;
  best.edit = fit.edits;
  best.ref_span = fit.ref_span;
  best.ambiguous = ambiguous;
  best.cigar = fit.cigar;
  return best;
}

bool PairFinalizer::IsDuplicateFragment(const MateBest& fwd,
                                        std::uint8_t first_strand,
                                        std::int64_t frag,
                                        const std::string& r1_name,
                                        bool* optical) {
  *optical = false;
  if (!cfg->mark_duplicates) return false;
  const auto [it, inserted] = seen_fragments_.try_emplace(
      std::make_tuple(fwd.pos, first_strand, frag));
  if (cfg->optical_dup_distance <= 0) return !inserted;
  const TileCoord mine = ParseTileCoord(r1_name);
  if (!inserted && mine.valid) {
    const std::int64_t d = cfg->optical_dup_distance;
    for (const TileCoord& prev : it->second) {
      if (prev.valid && prev.tile == mine.tile &&
          std::abs(prev.x - mine.x) <= d && std::abs(prev.y - mine.y) <= d) {
        *optical = true;
        break;
      }
    }
  }
  // Every copy's coordinates join the cluster, so a chain of adjacent
  // well-copies classifies optical even when only neighbours are close.
  it->second.push_back(mine);
  return !inserted;
}

bool PairFinalizer::IsDuplicateDiscordant(const MateBest& a,
                                          const MateBest& b) {
  if (!cfg->mark_duplicates) return false;
  std::int64_t pos1 = a.pos, pos2 = b.pos;
  std::uint8_t s1 = a.strand, s2 = b.strand;
  if (std::tie(pos2, s2) < std::tie(pos1, s1)) {
    std::swap(pos1, pos2);
    std::swap(s1, s2);
  }
  return !seen_discordant_.emplace(pos1, s1, pos2, s2).second;
}

bool PairFinalizer::IsDuplicateSingleEnd(const MateBest& mapped) {
  if (!cfg->mark_duplicates) return false;
  return !seen_single_.emplace(mapped.pos, mapped.strand).second;
}

void PairFinalizer::EmitMate(const FastqRecord& rec, const std::string& rc,
                             bool first, const MateBest& me,
                             const MateBest& mate, std::int64_t tlen,
                             bool proper, bool duplicate) {
  if (!write_sam) return;
  const ReferenceSet& ref = mapper->reference();

  int flags = kSamPaired | (first ? kSamFirstInPair : kSamSecondInPair);
  if (proper) flags |= kSamProperPair;
  if (duplicate) flags |= kSamDuplicate;
  if (!me.mapped) flags |= kSamUnmapped;
  if (!mate.mapped) flags |= kSamMateUnmapped;
  if (me.mapped && me.strand != 0) flags |= kSamReverse;
  if (mate.mapped && mate.strand != 0) flags |= kSamMateReverse;

  SamRecord out;
  out.qname = rec.name;
  out.flags = flags;
  out.tlen = tlen;
  out.read_group = cfg->read_group;

  int my_chrom = -1;
  int mate_chrom = -1;
  std::int64_t my_local = -1;
  std::int64_t mate_local = -1;
  if (me.mapped) {
    my_chrom = ref.Locate(me.pos);
    my_local = ref.ToLocal(my_chrom, me.pos);
  }
  if (mate.mapped) {
    mate_chrom = ref.Locate(mate.pos);
    mate_local = ref.ToLocal(mate_chrom, mate.pos);
  }
  // Placement: an unmapped mate is placed at its partner's coordinate
  // (SAM recommended practice), keeping the pair adjacent in sorted
  // output.
  if (!me.mapped && mate.mapped) {
    my_chrom = mate_chrom;
    my_local = mate_local;
  }
  if (me.mapped || mate.mapped) {
    out.rname = ref.chromosome(static_cast<std::size_t>(my_chrom)).name;
    out.pos = my_local;
    out.rnext = (!mate.mapped || !me.mapped || mate_chrom == my_chrom)
                    ? std::string_view("=")
                    : std::string_view(
                          ref.chromosome(static_cast<std::size_t>(
                                             mate.mapped ? mate_chrom
                                                         : my_chrom))
                              .name);
    out.pnext = mate.mapped ? mate_local : my_local;
  }
  // Unmapped records carry MAPQ 0 (no placement to be confident in);
  // mapped ones the computed value — never 255 ("unavailable").
  out.mapq = me.mapped ? me.mapq : 0;

  // SEQ/QUAL follow the record's orientation: FLAG 0x10 emits the
  // reverse-complemented sequence and reversed quality string.
  std::string rqual;
  std::string_view seq = rec.seq;
  std::string_view qual = rec.qual.empty() ? std::string_view("*")
                                           : std::string_view(rec.qual);
  if (me.mapped && me.strand != 0) {
    seq = rc;
    if (!rec.qual.empty()) {
      rqual.assign(rec.qual.rbegin(), rec.qual.rend());
      qual = rqual;
    }
  }
  out.seq = seq;
  out.qual = qual;

  std::string cigar;
  if (me.mapped) {
    if (!me.cigar.empty()) {
      // Rescue placements carry the fit aligner's traceback; their
      // reference span may differ from the read length, so recomputing
      // against a fixed L-wide window would be wrong.
      out.cigar = me.cigar;
    } else {
      const std::string_view window(mapper->genome().data() + me.pos,
                                    static_cast<std::size_t>(L));
      cigar = CigarFor(seq, window, me.edit);
      out.cigar = cigar;
    }
    out.nm = me.edit;
  }
  AppendSam(&sam, out);
}

void PairFinalizer::Finalize(const PairTask& task) {
  PairedStats& st = *stats;
  if (task.skipped) {
    ++st.skipped_pairs;
    EmitMate(task.r1, task.rc1, true, {}, {}, 0, false, false);
    EmitMate(task.r2, task.rc2, false, {}, {}, 0, false, false);
    return;
  }

  // Verified mappings per mate.
  std::vector<MateBest> v1, v2;
  const auto verified_mate = [this](const OrientedCandidate& c, int edits) {
    MateBest m;
    m.mapped = true;
    m.pos = c.pos;
    m.strand = c.strand;
    m.edit = edits;
    m.ref_span = L;
    return m;
  };
  for (std::size_t i = 0; i < task.c1.size(); ++i) {
    if (task.e1[i] >= 0) v1.push_back(verified_mate(task.c1[i], task.e1[i]));
  }
  for (std::size_t i = 0; i < task.c2.size(); ++i) {
    if (task.e2[i] >= 0) v2.push_back(verified_mate(task.c2[i], task.e2[i]));
  }

  // Best concordant combination under the insert model, tracking the
  // runner-up combination's score — the pair-level MAPQ evidence (both
  // mates' edits plus the insert term enter the gap, so pairing can
  // confidently place a mate whose solo placements are repeat-tied).
  bool have_pair = false;
  double best_score = 0.0;
  double second_score = -1.0;
  MateBest b1, b2;
  std::int64_t best_frag = 0;
  int ties = 0;
  const ReferenceSet& ref = mapper->reference();
  for (const MateBest& m1 : v1) {
    for (const MateBest& m2 : v2) {
      if (m1.strand == m2.strand) continue;
      const MateBest& f = m1.strand == 0 ? m1 : m2;
      const MateBest& r = m1.strand == 0 ? m2 : m1;
      if (r.pos < f.pos) continue;
      const std::int64_t frag = r.pos + L - f.pos;
      if (frag > cfg->max_insert) continue;
      if (!ref.WindowWithinChromosome(f.pos, static_cast<int>(frag))) {
        continue;
      }
      const double score = m1.edit + m2.edit + InsertPenalty(frag);
      if (!have_pair || score < best_score) {
        if (have_pair) {
          second_score =
              second_score < 0.0 ? best_score
                                 : std::min(second_score, best_score);
        }
        have_pair = true;
        best_score = score;
        b1 = m1;
        b2 = m2;
        best_frag = frag;
        ties = 1;
      } else if (score == best_score) {
        ++ties;
        second_score = best_score;
      } else if (second_score < 0.0 || score < second_score) {
        second_score = score;
      }
    }
  }

  if (have_pair) {
    ++st.proper_pairs;
    // Only unambiguous pairs train the model — a repeat-torn tie would
    // feed it arbitrary fragment lengths.
    if (ties == 1) model.Observe(static_cast<double>(best_frag));
    // Both placements stand or fall with the combination, so both mates
    // carry the pair-level MAPQ.
    const int pair_mapq =
        ComputeMapq(best_score, second_score,
                    static_cast<std::size_t>(ties), cfg->mapq_cap);
    b1.mapq = pair_mapq;
    b2.mapq = pair_mapq;
    const bool first_is_fwd = b1.strand == 0;
    bool optical = false;
    const bool dup = IsDuplicateFragment(first_is_fwd ? b1 : b2, b1.strand,
                                         best_frag, task.r1.name, &optical);
    if (dup) ++st.duplicate_pairs;
    if (optical) ++st.optical_duplicate_pairs;
    EmitMate(task.r1, task.rc1, true, b1, b2,
             first_is_fwd ? best_frag : -best_frag, true, dup);
    EmitMate(task.r2, task.rc2, false, b2, b1,
             first_is_fwd ? -best_frag : best_frag, true, dup);
    return;
  }

  // Per-mate placement summaries: the single-end MAPQ evidence.
  const EditSummary s1 = Summarize(v1);
  const EditSummary s2 = Summarize(v2);

  // Best single-end mapping per mate (fewest edits, leftmost, forward
  // first on ties) — deterministic.
  const auto best_of = [](const std::vector<MateBest>& v) {
    MateBest best;
    for (const MateBest& m : v) {
      if (!best.mapped || m.edit < best.edit ||
          (m.edit == best.edit &&
           (m.pos < best.pos ||
            (m.pos == best.pos && m.strand < best.strand)))) {
        best = m;
      }
    }
    return best;
  };
  MateBest m1 = best_of(v1);
  MateBest m2 = best_of(v2);
  // Solo evidence: each mate scored against its own placement set.
  if (m1.mapped) {
    m1.mapq = ComputeMapq(s1.best, s1.second, s1.best_count, cfg->mapq_cap);
  }
  if (m2.mapped) {
    m2.mapq = ComputeMapq(s2.best, s2.second, s2.best_count, cfg->mapq_cap);
  }

  // Mate rescue: one mapped mate predicts where the other must lie.
  if (cfg->mate_rescue && (m1.mapped != m2.mapped)) {
    const MateBest& anchor = m1.mapped ? m1 : m2;
    MateBest rescued = Rescue(anchor, m1.mapped ? task.r2.seq : task.r1.seq,
                              m1.mapped ? task.rc2 : task.rc1);
    if (rescued.mapped) {
      ++st.rescued_mates;
      // A rescued placement exists only because of its anchor: its
      // confidence is bounded by the anchor's and its own residue — and
      // a repeat-torn rescue window is a tie like any other, score 0.
      rescued.mapq =
          rescued.ambiguous
              ? 0
              : RescueMapq(anchor.mapq, rescued.edit, cfg->mapq_cap);
      // Outer fragment span: the rightmost mate's placement may consume
      // more or fewer than L reference bases when rescue found an indel
      // — which can push a start-at-the-bound placement past max_insert,
      // or an insertion-rich one below the read length.  The scored
      // concordant path can produce neither geometry (it enforces
      // L <= frag <= max_insert), so such a pair keeps its mapping but
      // is emitted discordant instead of proper.
      const MateBest& f = anchor.strand == 0 ? anchor : rescued;
      const MateBest& r = anchor.strand == 0 ? rescued : anchor;
      const std::int64_t frag = r.pos + r.ref_span - f.pos;
      const bool concordant = frag >= L && frag <= cfg->max_insert;
      (m1.mapped ? m2 : m1) = rescued;
      bool dup = false;
      if (concordant) {
        ++st.proper_pairs;
        bool optical = false;
        dup = IsDuplicateFragment(m1.strand == 0 ? m1 : m2, m1.strand, frag,
                                  task.r1.name, &optical);
        if (dup) ++st.duplicate_pairs;
        if (optical) ++st.optical_duplicate_pairs;
      } else {
        ++st.discordant_pairs;
        dup = IsDuplicateDiscordant(m1, m2);
        if (dup) ++st.duplicate_discordant_pairs;
      }
      EmitMate(task.r1, task.rc1, true, m1, m2,
               m1.strand == 0 ? frag : -frag, concordant, dup);
      EmitMate(task.r2, task.rc2, false, m2, m1,
               m2.strand == 0 ? frag : -frag, concordant, dup);
      return;
    }
  }

  if (m1.mapped && m2.mapped) {
    ++st.discordant_pairs;
    const bool dup = IsDuplicateDiscordant(m1, m2);
    if (dup) ++st.duplicate_discordant_pairs;
    std::int64_t tlen1 = 0;
    const int chrom1 = ref.Locate(m1.pos);
    const int chrom2 = ref.Locate(m2.pos);
    if (chrom1 == chrom2) {
      const std::int64_t outer =
          std::max(m1.pos, m2.pos) + L - std::min(m1.pos, m2.pos);
      tlen1 = m1.pos < m2.pos || (m1.pos == m2.pos) ? outer : -outer;
    }
    EmitMate(task.r1, task.rc1, true, m1, m2, tlen1, false, dup);
    EmitMate(task.r2, task.rc2, false, m2, m1, -tlen1, false, dup);
    return;
  }

  if (m1.mapped || m2.mapped) {
    ++st.single_end_pairs;
    // Only the mapped record carries the duplicate bit: its unmapped
    // partner makes no placement claim to deduplicate.
    const bool dup = IsDuplicateSingleEnd(m1.mapped ? m1 : m2);
    if (dup) ++st.duplicate_singletons;
    EmitMate(task.r1, task.rc1, true, m1, m2, 0, false, m1.mapped && dup);
    EmitMate(task.r2, task.rc2, false, m2, m1, 0, false, m2.mapped && dup);
    return;
  }

  ++st.unmapped_pairs;
  EmitMate(task.r1, task.rc1, true, m1, m2, 0, false, false);
  EmitMate(task.r2, task.rc2, false, m2, m1, 0, false, false);
}

}  // namespace

PairedEndMapper::PairedEndMapper(const ReadMapper& mapper, PairedConfig config)
    : mapper_(mapper), config_(std::move(config)) {
  // A fragment must at least cover one read; a smaller bound would make
  // every pair discordant and silently disable the prune.
  config_.max_insert =
      std::max<std::int64_t>(config_.max_insert, mapper.config().read_length);
}

namespace {

// Publishes what one emitted chunk added to the process funnel, the
// change from `before` to `after`: insert-window pruning, SW mate rescues
// and per-mate mapped/unmapped terminals (the seeding kernel counts
// seeded candidates itself, and the filter its verdicts).  Per chunk, so
// a run stopped by a malformed pair still counts every pair it wrote.
void RecordPairedFunnel(const PairedStats& before, const PairedStats& after) {
  const auto added = [&](std::uint64_t PairedStats::*count) {
    return after.*count - before.*count;
  };
  obs::CandidatesPruned().Inc(added(&PairedStats::candidates_seeded) -
                              added(&PairedStats::candidates_paired));
  obs::RescuedMates().Inc(added(&PairedStats::rescued_mates));
  const std::uint64_t live_mates =
      2 * (added(&PairedStats::pairs) - added(&PairedStats::skipped_pairs));
  const std::uint64_t unmapped_mates =
      2 * added(&PairedStats::unmapped_pairs) +
      added(&PairedStats::single_end_pairs);
  obs::ReadsMapped().Inc(live_mates - unmapped_mates);
  obs::ReadsUnmapped().Inc(unmapped_mates);
}

}  // namespace

namespace {

constexpr std::size_t kChunkPairs = kSeedChunkReads / 2;

/// One chunk of pairs: mapped by a worker (seeded, pruned, filtered and
/// verified into each task's e1/e2), then finalized in input order.
struct PairChunk {
  std::array<PairTask, kChunkPairs> tasks;
  std::size_t size = 0;
  double take_seconds = 0.0;
  std::uint64_t verified = 0;
  std::uint64_t rejected = 0;
};

/// One worker's scratch.
struct PairScratch {
  SeedChunk seeds;
  std::vector<std::string_view> table;  // mates with candidates
  std::vector<CandidatePair> candidates;
  std::vector<PairResult> results;
  BandedVerifier verifier;
};

}  // namespace

PairedStats PairedEndMapper::MapPairs(const std::vector<FastqRecord>& r1,
                                      const std::vector<FastqRecord>& r2,
                                      const PreAlignmentFilter* filter,
                                      std::ostream* sam) {
  if (r1.size() != r2.size()) {
    throw std::invalid_argument(
        "PairedEndMapper: R1 and R2 record counts differ (" +
        std::to_string(r1.size()) + " vs " + std::to_string(r2.size()) + ")");
  }
  std::size_t i = 0;
  const PairSource next = [&](FastqRecord* a, FastqRecord* b) {
    if (i == r1.size()) return false;
    if (!PairedFastqReader::NamesMatch(r1[i].name, r2[i].name)) {
      throw std::invalid_argument(
          "PairedEndMapper: mate name mismatch at pair " + std::to_string(i) +
          ": '" + r1[i].name + "' vs '" + r2[i].name + "'");
    }
    *a = r1[i];
    *b = r2[i];
    ++i;
    return true;
  };
  return Map(next, filter, sam);
}

PairedStats PairedEndMapper::MapPairs(PairedFastqReader& reader,
                                      const PreAlignmentFilter* filter,
                                      std::ostream* sam) {
  const PairSource next = [&](FastqRecord* a, FastqRecord* b) {
    return reader.Next(a, b);
  };
  return Map(next, filter, sam);
}

PairedStats PairedEndMapper::Map(const PairSource& next,
                                 const PreAlignmentFilter* filter,
                                 std::ostream* sam) {
  const int L = mapper_.config().read_length;
  const int e = mapper_.config().error_threshold;
  const pipeline::ChunkFilter chunk_filter(filter, mapper_);
  const pipeline::StageHistograms stages;
  ThreadPool& pool = *mapper_.pool();
  const std::size_t workers = pipeline::ChunkWorkers(pool);
  std::vector<PairScratch> scratch(workers);
  const std::string_view genome = mapper_.genome();

  PairedStats stats;
  WallTimer total;
  PairFinalizer fin;
  fin.mapper = &mapper_;
  fin.cfg = &config_;
  fin.L = L;
  fin.e = e;
  fin.stats = &stats;
  fin.write_sam = sam != nullptr;

  // A malformed pair is raised only once the pairs before it are handed
  // out, so the output up to it does not depend on the chunk size.
  std::exception_ptr read_error;
  const auto take = [&](PairChunk& chunk) {
    if (read_error) std::rethrow_exception(read_error);
    const WallTimer timer;
    chunk.size = 0;
    try {
      while (chunk.size < kChunkPairs) {
        PairTask& t = chunk.tasks[chunk.size];
        if (!next(&t.r1, &t.r2)) break;
        ++chunk.size;
      }
    } catch (...) {
      read_error = std::current_exception();
    }
    if (chunk.size == 0 && read_error) std::rethrow_exception(read_error);
    chunk.take_seconds = timer.Seconds();
    return chunk.size > 0;
  };

  const auto map = [&](PairChunk& chunk, std::size_t worker) {
    PairScratch& s = scratch[worker];
    const std::span<PairTask> tasks(chunk.tasks.data(), chunk.size);
    {
      const pipeline::StageTimer timer(stages.source, "source",
                                       chunk.take_seconds);
      SeedPairTasks(mapper_, L, config_.max_insert, tasks, &s.seeds);
    }
    // Both mates' pruned candidates share one filter call.
    s.table.clear();
    s.candidates.clear();
    for (const PairTask& t : tasks) {
      for (int mate = 0; mate < 2; ++mate) {
        const std::vector<OrientedCandidate>& c = mate == 0 ? t.c1 : t.c2;
        if (c.empty()) continue;
        s.table.push_back(mate == 0 ? t.r1.seq : t.r2.seq);
        const auto ri = static_cast<std::uint32_t>(s.table.size() - 1);
        for (const OrientedCandidate& oc : c) {
          s.candidates.push_back({ri, oc.strand, 0, oc.pos});
        }
      }
    }
    chunk_filter.Filter(s.table, s.candidates, stages, &s.results);

    // Verification, each candidate on its seeded strand, in the order the
    // candidates were laid out above.
    const pipeline::StageTimer timer(stages.verify, "verify");
    chunk.verified = 0;
    chunk.rejected = 0;
    std::size_t k = 0;
    for (PairTask& t : tasks) {
      for (int mate = 0; mate < 2; ++mate) {
        const std::vector<OrientedCandidate>& c = mate == 0 ? t.c1 : t.c2;
        std::vector<int>& edits = mate == 0 ? t.e1 : t.e2;
        for (std::size_t j = 0; j < c.size(); ++j) {
          if (s.results[k++].accept == 0) {
            ++chunk.rejected;
            continue;
          }
          ++chunk.verified;
          const std::string& oriented =
              c[j].strand != 0 ? (mate == 0 ? t.rc1 : t.rc2)
                               : (mate == 0 ? t.r1.seq : t.r2.seq);
          const std::string_view window(genome.data() + c[j].pos,
                                        static_cast<std::size_t>(L));
          edits[j] = s.verifier.Distance(oriented, window, e);
        }
      }
    }
  };

  const auto emit = [&](PairChunk& chunk) {
    const PairedStats before = stats;
    for (const PairTask& t : std::span(chunk.tasks.data(), chunk.size)) {
      stats.candidates_seeded += t.seeded;
      stats.candidates_paired += t.c1.size() + t.c2.size();
      fin.Finalize(t);
    }
    if (sam != nullptr) {
      sam->write(fin.sam.data(), static_cast<std::streamsize>(fin.sam.size()));
      fin.sam.clear();
    }
    stats.pairs += chunk.size;
    stats.verification_pairs += chunk.verified;
    stats.rejected_pairs += chunk.rejected;
    RecordPairedFunnel(before, stats);
  };

  pipeline::RunOrderedChunks<PairChunk>(pool, workers, take, map, emit);

  stats.insert_mean = fin.model.mean();
  stats.insert_sigma = fin.model.sigma();
  stats.insert_observations = fin.model.count();
  stats.total_seconds = total.Seconds();
  return stats;
}

PairedStats StreamPairedFastqToSam(PairedFastqReader& reader,
                                   const ReadMapper& mapper,
                                   GateKeeperGpuEngine* engine,
                                   const PairedConfig& config,
                                   pipeline::PipelineConfig /*pcfg*/,
                                   std::ostream* sam) {
  PairedEndMapper paired(mapper, config);
  return paired.MapPairs(reader, pipeline::EngineShimFilter(engine != nullptr),
                         sam);
}

}  // namespace gkgpu
