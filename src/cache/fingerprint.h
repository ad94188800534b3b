#ifndef AQE_CACHE_FINGERPRINT_H_
#define AQE_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "vm/bytecode.h"
#include "vm/translator.h"

namespace aqe {

/// Canonical identity of a query plan, split into the parts that determine
/// the generated artifacts (the structural hash) and the parts that are
/// patchable at hit time (the query constants).
///
/// The structural hash covers the program name, every declaration (tables,
/// join tables, aggregation sets, outputs, bitmap indices), the stage
/// sequence, each pipeline's operator/sink/expression shape, and each
/// engine step's kind and fields. Expression constants (kConstI64 /
/// kConstF64) are hashed as *placeholders*; their raw 8-byte values are
/// collected into `constants` in deterministic preorder traversal, so two
/// queries differing only in literals share a structural hash and differ
/// in the constant vector. Runtime addresses never enter the fingerprint:
/// workers read them from the per-run binding array.
struct PlanFingerprint {
  uint64_t structural_hash = 0;
  /// Expression constants, traversal order (f64 bit-cast), steps' last.
  std::vector<uint64_t> constants;
  /// Per-pipeline [begin, end) slice into `constants`.
  std::vector<std::pair<uint32_t, uint32_t>> pipeline_constants;
  /// LIKE patterns (kLike expressions), traversal order — extracted as
  /// literals exactly like numeric constants, but they need no patch slots:
  /// the matcher object reaches the worker through the binding array, so
  /// plans differing only in patterns share bytecode *and* machine code
  /// as-is. They feed `pruning_key`.
  std::vector<std::string> string_literals;
  /// Hash of the string literals and of each predicate bitmap's contents:
  /// what, besides the constants, decides the rows scan pruning selects.
  /// Artifacts are shared across runs that differ in exactly these.
  uint64_t pruning_key = 0;
};

PlanFingerprint FingerprintProgram(const QueryProgram& program);

/// Folds the translator options, every one of which shapes bytecode, into a
/// cache key: two runs may only share artifacts when they agree on all of
/// them.
uint64_t ArtifactCacheKey(const PlanFingerprint& fingerprint,
                          const TranslatorOptions& options);

/// Maps each of a pipeline's fingerprint constants to the pool slot that
/// materializes it, so a literal-only plan variant can reuse the bytecode by
/// patching `pool_indices` with its own constant values. A slot is either a
/// constant-pool index (plain) or — when the translator folded the constant
/// into an immediate-operand superinstruction (br_*_imm) — a literal-pool
/// index tagged with `kLiteralPoolBit`. Constants with no private slot at
/// all — the values 0/1 (reserved registers) and duplicated literals
/// (interned) — are marked `kPinned`: a variant may still patch-share the
/// bytecode as long as its pinned constants equal the baseline's.
/// `patchable == false` means the mapping could not be established at all
/// (e.g. a constant was folded) and the bytecode may only be reused for an
/// exact constant match.
struct ConstantPatchTable {
  static constexpr uint32_t kPinned = 0xFFFFFFFFu;
  /// Tag: the slot indexes literal_pool, not constant_pool.
  static constexpr uint32_t kLiteralPoolBit = 0x80000000u;
  bool patchable = false;
  std::vector<uint32_t> pool_indices;  ///< one per pipeline constant
};

struct PipelineBindings;

/// Builds the patch table for `real` (the program translated from `spec`
/// with its genuine constants, under `translator_options`): re-runs codegen
/// and translation over a clone of `spec` whose constants are replaced by
/// distinctive sentinel values, then diffs the two constant pools. Any
/// structural difference between the sentinel and real programs makes the
/// pipeline unpatchable — never incorrect.
/// `constants` is the fingerprint constant vector, [begin, end) the
/// pipeline's slice.
ConstantPatchTable BuildConstantPatchTable(
    const BcProgram& real, const PipelineSpec& spec,
    const PipelineBindings& bindings, const RuntimeRegistry& registry,
    const TranslatorOptions& translator_options,
    const std::vector<uint64_t>& constants, uint32_t begin, uint32_t end);

/// Applies a patch table (`pool_indices`, ConstantPatchTable) to `program`,
/// which was translated with the constants `baseline`: a clone carrying
/// `constants` in every slot, or null when a pinned constant differs from
/// the baseline's (it has no private slot to patch).
std::shared_ptr<BcProgram> ApplyConstantPatch(
    const BcProgram& program, const std::vector<uint32_t>& pool_indices,
    const std::vector<uint64_t>& baseline,
    const std::vector<uint64_t>& constants);

}  // namespace aqe

#endif  // AQE_CACHE_FINGERPRINT_H_
