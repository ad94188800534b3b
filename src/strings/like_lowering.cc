#include "strings/like_lowering.h"

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "index/table_index.h"
#include "strings/string_predicate.h"

namespace aqe {

LoweredLike LowerLikePredicate(QueryProgram* program, const Table& table,
                               int column_index, int code_slot,
                               std::string_view pattern,
                               const LikeLoweringOptions& options) {
  AQE_CHECK_MSG(table.has_dictionary(column_index),
                "LIKE over a non-dictionary column");
  const Dictionary& dict = table.dictionary(column_index);
  LikeMatcher matcher = LikeMatcher::Compile(pattern);

  LoweredLike result;
  result.pattern_class = matcher.pattern_class();

  // Pattern-independent structure: these classes become pure integer
  // compares whose literals flow through the binding array, so any
  // strategy request collapses to the same (cheapest) form.
  switch (matcher.pattern_class()) {
    case LikePatternClass::kMatchAll:
      // Codes are always >= 0 > -1: constant-true with the same expression
      // shape as a one-sided range predicate.
      result.expr = Ge(Slot(code_slot), I64(-1));
      return result;
    case LikePatternClass::kEquality: {
      // The classic dictionary rewrite: equality on the code. An absent
      // literal compares against -1, which no code ever is — constant
      // false without changing the expression structure.
      const int64_t code = dict.Find(matcher.literal());
      result.expr = Eq(Slot(code_slot), I64(code));
      return result;
    }
    case LikePatternClass::kPrefix:
      if (dict.is_sorted()) {
        // Order-preserving dictionary: the prefix owns a contiguous code
        // range, so LIKE 'x%' is two fusable integer compares.
        const auto [lo, hi] = dict.PrefixRange(matcher.literal());
        result.expr =
            And(Ge(Slot(code_slot), I64(lo)), Lt(Slot(code_slot), I64(hi)));
        return result;
      }
      break;
    default:
      break;
  }

  // Token-index consultation: estimate how much of the table the pattern's
  // candidate rows cover. A selective pattern over an indexed column is
  // served best by the runtime call + scan pruning (posting intersection
  // schedules only candidate morsels; the call is the residual verify) —
  // pre-evaluating a bitmap would pay one matcher evaluation per distinct
  // string for rows that mostly never get scanned.
  bool index_usable = false;
  double index_selectivity = 1.0;
  if ((options.strategy == LikeStrategy::kIndex ||
       (options.strategy == LikeStrategy::kAuto && options.consult_index)) &&
      table.indexes() != nullptr && table.num_rows() > 0) {
    const TableIndexes& idx = *table.indexes();
    const auto text_it = idx.text_indexes.find(column_index);
    const auto csr_it = idx.dict_indexes.find(column_index);
    if (text_it != idx.text_indexes.end() &&
        csr_it != idx.dict_indexes.end()) {
      std::vector<int32_t> candidates;
      if (text_it->second.CandidateCodes(pattern, &candidates)) {
        uint64_t candidate_rows = 0;
        for (const int32_t code : candidates) {
          candidate_rows += csr_it->second.CountForCodeRange(code, code + 1);
        }
        index_usable = true;
        index_selectivity = static_cast<double>(candidate_rows) /
                            static_cast<double>(table.num_rows());
      }
    }
  }

  bool bitmap = options.strategy == LikeStrategy::kBitmap;
  if (options.strategy == LikeStrategy::kAuto) {
    const auto codes = static_cast<uint64_t>(dict.size());
    const double max_codes = std::max(
        1.0, static_cast<double>(table.num_rows()) *
                 options.max_distinct_fraction);
    bitmap = codes <= options.bitmap_max_codes &&
             static_cast<double>(codes) <= max_codes;
    if (index_usable && index_selectivity <= options.index_max_selectivity) {
      bitmap = false;  // the index path wins; see decision rule above
    }
  }
  const bool index_path =
      options.strategy == LikeStrategy::kIndex ||
      (options.strategy == LikeStrategy::kAuto && index_usable &&
       index_selectivity <= options.index_max_selectivity);

  if (index_path) {
    const LikePredicate* pred =
        program->AddLikePredicate({std::move(matcher), &dict});
    result.expr = LikeMatch(pred, Slot(code_slot));
    result.used_runtime_call = true;
    result.chose_index_path = index_usable;
    result.index_selectivity = index_selectivity;
    return result;
  }

  if (bitmap) {
    const uint8_t* bits = program->AddBitmap(BuildLikeBitmap(dict, matcher));
    result.expr = BitmapTest(bits, Slot(code_slot));
    result.used_bitmap = true;
    return result;
  }
  const LikePredicate* pred =
      program->AddLikePredicate({std::move(matcher), &dict});
  result.expr = LikeMatch(pred, Slot(code_slot));
  result.used_runtime_call = true;
  return result;
}

}  // namespace aqe
