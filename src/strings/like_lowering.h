#ifndef AQE_STRINGS_LIKE_LOWERING_H_
#define AQE_STRINGS_LIKE_LOWERING_H_

#include <string_view>

#include "plan/expr.h"
#include "plan/plan.h"
#include "storage/table.h"
#include "strings/like_pattern.h"

namespace aqe {

/// Which per-row representation a LIKE predicate lowers to.
enum class LikeStrategy {
  /// Decide from the dictionary: pre-evaluate when the distinct-string
  /// count is small enough that the setup cost amortizes over the scan
  /// (the decision rule in src/strings/DESIGN.md).
  kAuto,
  /// Force the dictionary pre-evaluation path (code-range compare or
  /// byte-per-code bitmap probe; fuses with the VM's br_* ops).
  kBitmap,
  /// Force the per-row runtime call (`aqe_like_match`): the call-heavy
  /// regime where compiled speedup shrinks. What high-cardinality
  /// dictionaries get under kAuto; benches force it to measure the gap.
  kRuntimeCall,
  /// Force the inverted-token-index access path: lower as a runtime call
  /// (the residual verify) and rely on scan pruning to schedule only the
  /// morsels holding candidate rows. Falls back to kRuntimeCall semantics
  /// when the table carries no token index for the column — the expression
  /// is identical either way; only the scan domain differs.
  kIndex,
};

struct LikeLoweringOptions {
  LikeStrategy strategy = LikeStrategy::kAuto;
  /// kAuto never pre-evaluates more distinct strings than this...
  uint32_t bitmap_max_codes = 1u << 16;
  /// ...nor when the dictionary holds more than this fraction of the
  /// table's rows (each distinct string must amortize its one evaluation
  /// over the rows that carry it).
  double max_distinct_fraction = 0.125;
  /// kAuto consults the table's inverted token index (when one covers the
  /// column): if the pattern's candidate rows are at most
  /// `index_max_selectivity` of the table, the bitmap build — which must
  /// evaluate the matcher over *every* distinct string — cannot beat
  /// posting intersection + residual verify over the few candidate
  /// morsels, so the lowering emits the runtime call and leaves row
  /// selection to scan pruning (src/index/DESIGN.md has the full rule).
  bool consult_index = true;
  double index_max_selectivity = 0.05;
};

/// The lowered predicate plus what the lowering chose (benches and tests
/// assert on the decision; DESIGN.md documents the rule).
struct LoweredLike {
  ExprPtr expr;  ///< Bool predicate over the code in `code_slot`
  bool used_bitmap = false;          ///< pre-evaluation path taken
  bool used_runtime_call = false;    ///< kLike runtime-call expression
  /// The decision expects scan pruning to serve this predicate from the
  /// token index (runtime call emitted as the residual verify only).
  bool chose_index_path = false;
  /// Candidate-row fraction estimated from the token index; 1.0 when the
  /// index was not consulted or could not help.
  double index_selectivity = 1.0;
  LikePatternClass pattern_class = LikePatternClass::kGeneral;
};

/// Lowers `<column> LIKE <pattern>` against the dictionary of
/// `table.column(column_index)`, whose code the pipeline scans into
/// `code_slot`. Wildcard-free patterns become a single code compare and
/// prefix patterns a code-range compare — both
/// carry the pattern as plain I64 literals, so pattern variants share
/// cached bytecode exactly like numeric constants. Everything
/// else either pre-evaluates into a program-owned bitmap (kBitmapTest) or
/// becomes a kLike runtime call whose matcher reaches the worker through
/// the binding array.
LoweredLike LowerLikePredicate(QueryProgram* program, const Table& table,
                               int column_index, int code_slot,
                               std::string_view pattern,
                               const LikeLoweringOptions& options = {});

}  // namespace aqe

#endif  // AQE_STRINGS_LIKE_LOWERING_H_
