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
/// token maps to the sorted list of dictionary *codes* containing it. Rows
/// are resolved through the column's DictCodeIndex, so postings stay as
/// small as the token dictionary — for comment-style columns the token
/// vocabulary is tiny while the code space is huge, which is exactly the
/// regime where the per-row LIKE call path drowns (BENCH_strings highcard).
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
  /// 4 x ForkJoinWidth() ranges on as many threads.
  static constexpr size_t kParallelBuildCodes = size_t{64} << 10;

  static TokenIndex Build(const Dictionary& dict);

  size_t num_tokens() const { return tokens_.size(); }
  uint64_t posting_entries() const { return codes_.size(); }

  /// The literal alphanumeric sub-parts of a LIKE pattern usable for
  /// candidate generation: the pattern is split at '%' and '_' into literal
  /// chunks, each chunk split again at non-alphanumeric bytes; sub-parts
  /// shorter than kMinSubpart are dropped. Any string matching the pattern
  /// contains each sub-part inside one of its tokens.
  static std::vector<std::string> PatternParts(std::string_view pattern);

  /// Sorted candidate dictionary codes for `pattern`: the intersection over
  /// sub-parts of the union of postings of tokens containing the sub-part.
  /// Returns false when the pattern has no usable sub-part (index cannot
  /// help); true with a possibly-empty `out` otherwise.
  /// `posting_entries_touched` (optional) accumulates the posting-list
  /// lengths read — the observability "work done by the index" number.
  bool CandidateCodes(std::string_view pattern, std::vector<int32_t>* out,
                      uint64_t* posting_entries_touched = nullptr) const;

  uint64_t approx_bytes() const;

 private:
  std::vector<std::string> tokens_;  ///< sorted (deterministic layout)
  std::vector<uint64_t> offsets_;    ///< token t postings = codes_[offsets_[t], offsets_[t+1])
  PageVector<int32_t> codes_;        ///< ascending within each token
};

}  // namespace aqe

#endif  // AQE_INDEX_TEXT_INDEX_H_
