#include "encode/encoded.hpp"

#include <algorithm>
#include <cassert>

#include "util/threadpool.hpp"

namespace gkgpu {

bool EncodeSequence(std::string_view seq, Word* out) {
  const int length = static_cast<int>(seq.size());
  const int nwords = EncodedWords(length);
  std::fill(out, out + nwords, Word{0});
  bool unknown = false;
  for (int i = 0; i < length; ++i) {
    unsigned code = BaseToCode(seq[static_cast<std::size_t>(i)]);
    if (code >= 4) {
      unknown = true;
      code = 0;
    }
    out[i / kBasesPerWord] |=
        Word(code) << (kWordBits - 2 - 2 * (i % kBasesPerWord));
  }
  return unknown;
}

std::string DecodeSequence(const Word* enc, int length) {
  std::string s(static_cast<std::size_t>(length), 'A');
  for (int i = 0; i < length; ++i) {
    s[static_cast<std::size_t>(i)] = CodeToBase(GetBase2Bit(enc, i));
  }
  return s;
}

namespace {

template <typename Seq>
EncodedBatch EncodeBatchOf(std::span<const Seq> seqs, int length) {
  CheckFilterReadLength(length, "EncodeBatch");
  EncodedBatch batch;
  batch.length = length;
  batch.words_per_seq = EncodedWords(length);
  batch.words.assign(
      seqs.size() * static_cast<std::size_t>(batch.words_per_seq), 0);
  batch.has_n.assign(seqs.size(), 0);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    CheckSequenceLength(seqs[i].size(), length, i, "EncodeBatch");
    batch.has_n[i] = EncodeSequence(seqs[i], batch.Sequence(i)) ? 1 : 0;
  }
  return batch;
}

}  // namespace

EncodedBatch EncodeBatch(std::span<const std::string> seqs, int length) {
  return EncodeBatchOf(seqs, length);
}

EncodedBatch EncodeBatch(std::span<const std::string_view> seqs, int length) {
  return EncodeBatchOf(seqs, length);
}

bool RangeHasUnknownRaw(const Word* n_mask, std::int64_t ref_len,
                        std::int64_t start, int len) {
  if (start < 0 || start > ref_len - len) return true;
  std::int64_t p = start;
  const std::int64_t end = start + len;
  while (p < end) {
    const std::int64_t word = p / kWordBits;
    const int first_bit = static_cast<int>(p % kWordBits);
    const int bits_here = static_cast<int>(
        std::min<std::int64_t>(kWordBits - first_bit, end - p));
    Word window = n_mask[static_cast<std::size_t>(word)];
    // Keep only bits [first_bit, first_bit + bits_here) (MSB-first).
    window <<= first_bit;
    if (bits_here < kWordBits) window &= ~Word{0} << (kWordBits - bits_here);
    if (window != 0) return true;
    p += bits_here;
  }
  return false;
}

void ExtractSegmentRaw(const Word* ref_words, std::int64_t ref_len,
                       std::int64_t start, int len, Word* out) {
  assert(start >= 0 && start + len <= ref_len);
  const std::int64_t total_words =
      (ref_len + kBasesPerWord - 1) / kBasesPerWord;
  const int out_words = EncodedWords(len);
  const std::int64_t first_word = start / kBasesPerWord;
  const int bit_off = 2 * static_cast<int>(start % kBasesPerWord);
  // Single pass: out word k funnels the tail of raw word (first_word + k)
  // and the head of the next one — no temporary copy, no second shifting
  // pass.  start + len <= ref_len guarantees first_word + k < total_words
  // for every out word; only the k+1 neighbour can run off the end.
  for (int k = 0; k < out_words; ++k) {
    const std::int64_t idx = first_word + k;
    const Word a = ref_words[static_cast<std::size_t>(idx)];
    if (bit_off == 0) {
      out[k] = a;
    } else {
      const Word b = idx + 1 < total_words
                         ? ref_words[static_cast<std::size_t>(idx + 1)]
                         : 0;
      out[k] = (a << bit_off) | (b >> (kWordBits - bit_off));
    }
  }
  // Zero pad bases past the segment so encoded comparisons are exact.
  const int pad_bits = out_words * kWordBits - 2 * len;
  if (pad_bits > 0) {
    out[out_words - 1] &= ~Word{0} << pad_bits;
  }
}

bool ReferenceEncoding::RangeHasUnknown(std::int64_t start, int len) const {
  return RangeHasUnknownRaw(n_mask.data(), length, start, len);
}

void ReferenceEncoding::ExtractSegment(std::int64_t start, int len,
                                       Word* out) const {
  ExtractSegmentRaw(words.data(), length, start, len, out);
}

ReferenceEncoding EncodeReference(std::string_view text, ThreadPool* pool) {
  ReferenceEncoding ref;
  ref.length = static_cast<std::int64_t>(text.size());
  const std::size_t enc_words = static_cast<std::size_t>(
      (ref.length + kBasesPerWord - 1) / kBasesPerWord);
  const std::size_t mask_words =
      static_cast<std::size_t>((ref.length + kWordBits - 1) / kWordBits);
  ref.words.assign(enc_words, 0);
  ref.n_mask.assign(mask_words, 0);
  auto encode_words = [&](std::size_t wb, std::size_t we) {
    for (std::size_t w = wb; w < we; ++w) {
      Word packed = 0;
      const std::int64_t base0 = static_cast<std::int64_t>(w) * kBasesPerWord;
      const int count = static_cast<int>(
          std::min<std::int64_t>(kBasesPerWord, ref.length - base0));
      for (int j = 0; j < count; ++j) {
        const char c = text[static_cast<std::size_t>(base0 + j)];
        unsigned code = BaseToCode(c);
        if (code >= 4) {
          code = 0;
          const std::int64_t p = base0 + j;
          // Each n_mask word covers two encoded words; writers of distinct
          // encoded words may share an n_mask word, so chunk at even word
          // indices (grain below keeps chunks aligned).
          ref.n_mask[static_cast<std::size_t>(p / kWordBits)] |=
              Word{1u} << (kWordBits - 1 - static_cast<int>(p % kWordBits));
        }
        packed |= Word(code) << (kWordBits - 2 - 2 * j);
      }
      ref.words[w] = packed;
    }
  };
  if (pool != nullptr) {
    // Grain of 4096 encoded words = 2048 n_mask words; chunk boundaries are
    // even so no two chunks touch the same n_mask word.
    pool->ParallelFor(0, enc_words, 4096, encode_words);
  } else {
    encode_words(0, enc_words);
  }
  return ref;
}

}  // namespace gkgpu
