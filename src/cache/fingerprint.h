#ifndef AQE_CACHE_FINGERPRINT_H_
#define AQE_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "vm/translator.h"

namespace aqe {

/// Canonical identity of a query plan, split into the parts that determine
/// the generated artifacts (the structural hash) and the query constants,
/// which bytecode reads from the binding array and machine code embeds.
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
  /// LIKE patterns (kLike expressions), traversal order. The matcher
  /// object reaches the worker through the binding array, so plans
  /// differing only in patterns share bytecode *and* machine code. They
  /// feed `pruning_key`.
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

}  // namespace aqe

#endif  // AQE_CACHE_FINGERPRINT_H_
