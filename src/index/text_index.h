#ifndef AQE_INDEX_TEXT_INDEX_H_
#define AQE_INDEX_TEXT_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class Dictionary;

/// Inverted token index over a dictionary-encoded text column: the distinct
/// strings are tokenized at build time (maximal alphanumeric runs) and each
/// token maps to the set of dictionary *codes* containing it. Rows are
/// resolved through the column's DictCodeIndex, so postings stay as small
/// as the token dictionary — for comment-style columns the token
/// vocabulary is tiny while the code space is huge, which is exactly the
/// regime where the per-row LIKE call path drowns (BENCH_strings highcard).
///
/// Each token's codes are stored in whichever container is smaller (the
/// container rule of Roaring bitmaps): an ascending array of 4-byte codes,
/// or a bitmap of one bit per code of the dictionary. The bitmap wins once
/// a token posts more than one code in 32.
///
/// Candidate generation is a strict superset of the true matches: every
/// literal alphanumeric sub-part of the pattern must appear inside some
/// token of a matching string, so intersecting per-sub-part posting unions
/// can never lose a match. The residual LikeMatcher verify on the surviving
/// rows restores exact semantics.
class TokenIndex {
 public:
  /// Sub-parts shorter than this are ignored for candidate generation
  /// (they match nearly everything and only cost intersection time).
  static constexpr size_t kMinSubpart = 2;

  /// Build tokenizes a dictionary of at least this many codes in
  /// 4 x ForkJoinWidth() ranges on as many threads. Every range but the
  /// last starts and ends on a multiple of 64 codes, so a range's codes
  /// fill whole words of every bitmap: a range builds its own slice of
  /// each token's bitmap.
  static constexpr size_t kParallelBuildCodes = size_t{4} << 10;

  static TokenIndex Build(const Dictionary& dict);

  size_t num_tokens() const { return tokens_.size(); }
  /// Codes posted, summed over the tokens, whatever their containers.
  uint64_t posting_entries() const { return posting_entries_; }
  /// Tokens whose postings are a bitmap.
  size_t num_bitmaps() const;

  /// The literal alphanumeric sub-parts of a LIKE pattern usable for
  /// candidate generation: the pattern is split at '%' and '_' into literal
  /// chunks, each chunk split again at non-alphanumeric bytes; sub-parts
  /// shorter than kMinSubpart are dropped. Any string matching the pattern
  /// contains each sub-part inside one of its tokens.
  static std::vector<std::string> PatternParts(std::string_view pattern);

  /// Sorted candidate dictionary codes for `pattern`: the intersection over
  /// sub-parts of the union of postings of tokens containing the sub-part,
  /// computed on one bitmap over the codes.
  /// Returns false when the pattern has no usable sub-part (index cannot
  /// help); true with a possibly-empty `out` otherwise.
  /// `posting_entries_touched` (optional) accumulates the posting counts
  /// of the tokens read — the observability "work done by the index"
  /// number.
  bool CandidateCodes(std::string_view pattern, std::vector<int32_t>* out,
                      uint64_t* posting_entries_touched = nullptr) const;

  uint64_t approx_bytes() const;

 private:
  /// One token's postings: `count` codes, in codes_ from `first` when
  /// stored as an array, in words_ from `first` when a bitmap.
  struct Postings {
    uint64_t count;
    uint64_t first;
  };

  /// Words of one bitmap: one bit per code of the dictionary.
  uint64_t bitmap_words() const { return (num_codes_ + 63) / 64; }
  /// The container rule: `count` codes of a bitmap of `words` words are
  /// a bitmap once its bytes are fewer than the array's.
  static bool IsBitmap(uint64_t count, uint64_t words) {
    return count * sizeof(int32_t) > words * sizeof(uint64_t);
  }
  /// Sets the bits of token t's codes in `bits` (bitmap_words() words).
  void OrInto(size_t t, uint64_t* bits) const;

  uint64_t num_codes_ = 0;        ///< the dictionary's size
  uint64_t posting_entries_ = 0;  ///< summed counts
  std::vector<std::string> tokens_;  ///< sorted (deterministic layout)
  std::vector<Postings> postings_;   ///< by token
  PageVector<int32_t> codes_;        ///< array postings, ascending per token
  PageVector<uint64_t> words_;       ///< bitmap postings, bitmap_words() each
};

}  // namespace aqe

#endif  // AQE_INDEX_TEXT_INDEX_H_
