#ifndef AQE_STRINGS_STRING_PREDICATE_H_
#define AQE_STRINGS_STRING_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "storage/dictionary.h"
#include "strings/like_pattern.h"

namespace aqe {

/// A compiled LIKE predicate bound to a dictionary column: the runtime
/// object behind the per-row call path (`aqe_like_match`). Owned by the
/// QueryProgram (AddLikePredicate); the worker receives its address through
/// the packed binding array, so cached bytecode and machine code stay
/// position-independent — two plans differing only in the pattern literal
/// share artifacts.
struct LikePredicate {
  LikeMatcher matcher;
  const Dictionary* dict = nullptr;  ///< not owned

  /// True iff `code` is a valid code of `dict` whose string matches. Codes
  /// outside [0, dict->size()) — e.g. the -1 an absent-constant lookup
  /// yields — never match (SQL LIKE is never true for missing values).
  bool Matches(int64_t code) const {
    if (dict == nullptr || code < 0 || code >= dict->size()) return false;
    return matcher.Matches(dict->Get(static_cast<int32_t>(code)));
  }
};

/// HyPer-style dictionary pre-evaluation: runs `matcher` once per distinct
/// string, producing the byte-per-code bitmap a kBitmapTest probes per row.
/// Specialized pattern classes use the dictionary's native primitives.
std::vector<uint8_t> BuildLikeBitmap(const Dictionary& dict,
                                     const LikeMatcher& matcher);

}  // namespace aqe

#endif  // AQE_STRINGS_STRING_PREDICATE_H_
