#include "cache/fingerprint.h"

#include <cstring>

#include "codegen/query_compiler.h"
#include "common/status.h"

namespace aqe {
namespace {

/// FNV-1a-style 64-bit hash stream with a 64-bit finalizer mix. Collisions
/// across distinct plan shapes are what tests/cache_test.cc's suite-wide
/// check guards against.
class HashStream {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t n) {
    U64(n);
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ULL;
    }
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t digest() const {
    // splitmix64 finalizer: diffuses the low-entropy FNV state.
    uint64_t z = hash_ + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Tags keep adjacent fields from aliasing (e.g. a slot index vs a count).
enum Tag : uint64_t {
  kTagExpr = 0xE1,
  kTagConst = 0xE2,
  kTagOp = 0xE3,
  kTagSink = 0xE4,
  kTagPipeline = 0xE5,
  kTagStage = 0xE6,
  kTagDecl = 0xE7,
  kTagLike = 0xE8,
  kTagStep = 0xE9,
};

struct FingerprintBuilder {
  const QueryProgram& program;
  HashStream hash;
  std::vector<uint64_t> constants;
  std::vector<std::string> string_literals;

  explicit FingerprintBuilder(const QueryProgram& program)
      : program(program) {}

  /// Index of `bitmap` in the program's bitmap list (its binding-array
  /// slot). Unknown pointers (not owned by the program) are hashed by
  /// address, which safely makes such plans unshareable.
  void HashBitmap(const uint8_t* bitmap) {
    const auto& bitmaps = program.bitmaps();
    for (size_t i = 0; i < bitmaps.size(); ++i) {
      if (bitmaps[i]->data() == bitmap) {
        hash.U64(i);
        return;
      }
    }
    hash.U64(reinterpret_cast<uint64_t>(bitmap));
  }

  /// Index of `pred` in the program's LIKE-predicate list (its
  /// binding-array slot); the *pattern* is extracted as a string literal,
  /// not hashed — pattern-only variants share artifacts without patching
  /// because the matcher flows through the binding array.
  void HashLikePred(const LikePredicate* pred) {
    const auto& preds = program.like_predicates();
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i].get() == pred) {
        hash.U64(i);
        string_literals.push_back(pred->matcher.pattern());
        return;
      }
    }
    hash.U64(reinterpret_cast<uint64_t>(pred));
  }

  void HashExpr(const Expr& expr) {
    hash.U64(kTagExpr);
    hash.U64(static_cast<uint64_t>(expr.kind));
    hash.U64(static_cast<uint64_t>(expr.type));
    switch (expr.kind) {
      case ExprKind::kSlot:
        hash.I64(expr.slot);
        break;
      case ExprKind::kConstI64:
        hash.U64(kTagConst);
        constants.push_back(static_cast<uint64_t>(expr.i64_value));
        break;
      case ExprKind::kConstF64: {
        hash.U64(kTagConst);
        uint64_t bits;
        std::memcpy(&bits, &expr.f64_value, sizeof(bits));
        constants.push_back(bits);
        break;
      }
      case ExprKind::kBitmapTest:
        HashBitmap(expr.bitmap);
        break;
      case ExprKind::kLike:
        hash.U64(kTagLike);
        HashLikePred(expr.like_pred);
        break;
      default:
        break;
    }
    hash.U64(expr.children.size());
    for (const auto& child : expr.children) HashExpr(*child);
  }

  void HashPipeline(const PipelineSpec& spec) {
    hash.U64(kTagPipeline);
    hash.Str(spec.name);
    hash.I64(spec.source_table);
    hash.U64(spec.scan_columns.size());
    for (int c : spec.scan_columns) hash.I64(c);
    hash.U64(spec.ops.size());
    for (const PipelineOp& op : spec.ops) {
      hash.U64(kTagOp);
      hash.U64(op.index());
      if (const auto* filter = std::get_if<OpFilter>(&op)) {
        HashExpr(*filter->predicate);
      } else if (const auto* compute = std::get_if<OpCompute>(&op)) {
        HashExpr(*compute->expr);
      } else {
        const auto& probe = std::get<OpProbe>(op);
        hash.I64(probe.ht);
        hash.I64(probe.payload_slots);
        hash.U64(static_cast<uint64_t>(probe.kind));
        HashExpr(*probe.key);
      }
    }
    hash.U64(kTagSink);
    hash.U64(spec.sink.index());
    if (const auto* build = std::get_if<SinkBuild>(&spec.sink)) {
      hash.I64(build->ht);
      HashExpr(*build->key);
      hash.U64(build->payload.size());
      for (const auto& p : build->payload) HashExpr(*p);
    } else if (const auto* agg = std::get_if<SinkAgg>(&spec.sink)) {
      hash.I64(agg->agg);
      HashExpr(*agg->key);
      hash.U64(agg->items.size());
      for (const AggItem& item : agg->items) {
        hash.U64(static_cast<uint64_t>(item.kind));
        hash.U64(item.checked ? 1 : 0);
        hash.U64(item.value != nullptr ? 1 : 0);
        if (item.value != nullptr) HashExpr(*item.value);
      }
    } else {
      const auto& out = std::get<SinkOutput>(spec.sink);
      hash.I64(out.output);
      hash.U64(out.values.size());
      for (const auto& v : out.values) HashExpr(*v);
    }
  }

  void HashSortKeys(const std::vector<SortKey>& keys) {
    hash.U64(keys.size());
    for (const SortKey& key : keys) {
      hash.U64(uint64_t{key.slot} << 2 | key.descending << 1 | key.as_double);
    }
  }

  void HashStep(const EngineStep& step) {
    hash.U64(kTagStep);
    hash.U64(step.index());
    if (const auto* read = std::get_if<StepReadGroups>(&step)) {
      hash.I64(read->agg);
      hash.U64(read->scalar ? 1 : 0);
      hash.I64(read->scalar_agg);
      hash.U64(read->rows.size());
      for (const GroupRow& row : read->rows) {
        hash.U64(row.filter != nullptr ? 1 : 0);
        if (row.filter != nullptr) HashExpr(*row.filter);
        hash.U64(row.columns.size());
        for (const auto& column : row.columns) HashExpr(*column);
      }
    } else if (const auto* read = std::get_if<StepReadOutput>(&step)) {
      hash.I64(read->output);
    } else if (const auto* count_by = std::get_if<StepCountBy>(&step)) {
      hash.I64(count_by->agg);
      hash.U64(count_by->column);
    } else if (const auto* sort = std::get_if<StepSort>(&step)) {
      HashSortKeys(sort->keys);
    } else if (const auto* top = std::get_if<StepTopK>(&step)) {
      HashSortKeys(top->keys);
      hash.U64(top->k);
    } else {
      const auto& build = std::get<StepGroupsToJoinTable>(step);
      hash.I64(build.agg);
      hash.I64(build.ht);
      hash.U64(build.filter != nullptr ? 1 : 0);
      if (build.filter != nullptr) HashExpr(*build.filter);
    }
  }
};

/// Sentinel constant for global constant index `i`: a distinctive high
/// pattern no real query literal or structural codegen constant uses, with
/// the index folded in so every sentinel is unique.
uint64_t ConstantSentinel(uint32_t i) {
  return 0x5EA7C0DE00000000ULL | (0xA0000ULL + i);
}

/// Replaces the non-pinned constants of `expr` (preorder, same traversal as
/// FingerprintBuilder) with sentinels. `next` is the running global index,
/// `pinned` is indexed by local position (global - `base`).
struct SentinelRewriter {
  uint32_t base;
  const std::vector<bool>& pinned;
  uint32_t next;

  void Visit(Expr* expr) {
    if (expr->kind == ExprKind::kConstI64) {
      if (!pinned[next - base]) {
        expr->i64_value = static_cast<int64_t>(ConstantSentinel(next));
      }
      ++next;
    } else if (expr->kind == ExprKind::kConstF64) {
      if (!pinned[next - base]) {
        uint64_t bits = ConstantSentinel(next);
        std::memcpy(&expr->f64_value, &bits, sizeof(bits));
      }
      ++next;
    }
    for (auto& child : expr->children) Visit(child.get());
  }
};

void ReplaceSpecConstants(PipelineSpec* spec, uint32_t first_index,
                          const std::vector<bool>& pinned) {
  SentinelRewriter rw{first_index, pinned, first_index};
  for (PipelineOp& op : spec->ops) {
    if (auto* filter = std::get_if<OpFilter>(&op)) {
      rw.Visit(filter->predicate.get());
    } else if (auto* compute = std::get_if<OpCompute>(&op)) {
      rw.Visit(compute->expr.get());
    } else {
      rw.Visit(std::get<OpProbe>(op).key.get());
    }
  }
  if (auto* build = std::get_if<SinkBuild>(&spec->sink)) {
    rw.Visit(build->key.get());
    for (auto& p : build->payload) rw.Visit(p.get());
  } else if (auto* agg = std::get_if<SinkAgg>(&spec->sink)) {
    rw.Visit(agg->key.get());
    for (AggItem& item : agg->items) {
      if (item.value != nullptr) rw.Visit(item.value.get());
    }
  } else {
    for (auto& v : std::get<SinkOutput>(spec->sink).values) {
      rw.Visit(v.get());
    }
  }
}

/// Everything but the constant-pool and literal-pool *values* must match
/// for the sentinel diff to be meaningful (literal-pool entries carry the
/// immediates of br_*_imm superinstructions, which differ between the
/// sentinel and real translations; BuildConstantPatchTable verifies the
/// non-immediate entries — callee addresses — value by value).
bool StructurallyEqual(const BcProgram& a, const BcProgram& b) {
  if (a.code.size() != b.code.size() ||
      a.constant_pool.size() != b.constant_pool.size() ||
      a.literal_pool.size() != b.literal_pool.size() ||
      a.arg_offsets != b.arg_offsets ||
      a.register_file_size != b.register_file_size) {
    return false;
  }
  if (!a.code.empty() &&
      std::memcmp(a.code.data(), b.code.data(),
                  a.code.size() * sizeof(BcInstruction)) != 0) {
    return false;
  }
  for (size_t i = 0; i < a.constant_pool.size(); ++i) {
    if (a.constant_pool[i].slot != b.constant_pool[i].slot) return false;
  }
  return true;
}

}  // namespace

PlanFingerprint FingerprintProgram(const QueryProgram& program) {
  PlanFingerprint fp;
  FingerprintBuilder builder(program);
  HashStream& h = builder.hash;

  h.Str(program.name());

  h.U64(kTagDecl);
  h.U64(static_cast<uint64_t>(program.num_join_tables()));
  for (int j = 0; j < program.num_join_tables(); ++j) {
    h.U64(program.join_payload_slots(j));
  }
  // Aggregation/output declaration counts: they fix the binding-array
  // layout. Their payload shapes live in runtime objects built fresh per
  // context (never in cached artifacts), so counts suffice here; the sinks
  // that fill them and the engine steps that read them are hashed below.
  h.U64(static_cast<uint64_t>(program.num_agg_sets()));
  h.U64(static_cast<uint64_t>(program.num_outputs()));
  h.U64(program.bitmaps().size());
  // LIKE-predicate count fixes the binding-array layout like the bitmap
  // count does (LikePredSlot comes after BitmapSlot).
  h.U64(program.like_predicates().size());

  h.U64(kTagStage);
  h.U64(program.stages().size());
  for (const QueryProgram::Stage& stage : program.stages()) {
    h.I64(stage.pipeline);
    h.I64(stage.step);
  }

  for (const PipelineSpec& spec : program.pipelines()) {
    uint32_t begin = static_cast<uint32_t>(builder.constants.size());
    builder.HashPipeline(spec);
    // The scanned table's name: one engine's catalog has unique names, so
    // with the column indices hashed above it fixes every column's type.
    h.Str(program.table_name(spec.source_table));
    fp.pipeline_constants.emplace_back(
        begin, static_cast<uint32_t>(builder.constants.size()));
  }
  // The steps' literals follow the last pipeline's constant slice, so a
  // variant that differs only in a step literal (a HAVING bound) shares
  // every pipeline artifact.
  for (const EngineStep& step : program.steps()) builder.HashStep(step);

  fp.structural_hash = h.digest();
  fp.constants = std::move(builder.constants);
  fp.string_literals = std::move(builder.string_literals);
  HashStream ph;
  for (const std::string& s : fp.string_literals) ph.Str(s);
  for (const auto& bitmap : program.bitmaps()) {
    ph.Bytes(bitmap->data(), bitmap->size());
  }
  fp.pruning_key = ph.digest();
  return fp;
}

uint64_t ArtifactCacheKey(const PlanFingerprint& fingerprint,
                          const TranslatorOptions& options) {
  HashStream h;
  h.U64(fingerprint.structural_hash);
  h.U64(static_cast<uint64_t>(options.strategy));
  h.U64(static_cast<uint64_t>(options.window_size));
  h.U64((options.fuse_branch_chains ? 16 : 0) |
        (options.fuse_load_cmp_branches ? 8 : 0) |
        (options.fuse_imm_cmp_branches ? 4 : 0) |
        (options.fuse_macro_ops ? 2 : 0) | (options.fuse_cmp_branches ? 1 : 0));
  return h.digest();
}

ConstantPatchTable BuildConstantPatchTable(
    const BcProgram& real, const PipelineSpec& spec,
    const PipelineBindings& bindings, const RuntimeRegistry& registry,
    const TranslatorOptions& translator_options,
    const std::vector<uint64_t>& constants, uint32_t begin, uint32_t end) {
  ConstantPatchTable table;
  if (begin == end) {
    table.patchable = true;  // nothing to patch: any constant vector fits
    return table;
  }

  // Constants the translator gives no private pool slot: 0/1 live in the
  // reserved registers, duplicated literals are interned into one slot.
  // They stay pinned — the sentinel translation keeps their real values so
  // the program structure matches, and a variant may only patch-share when
  // its pinned constants agree with the baseline.
  std::vector<bool> pinned(end - begin, false);
  for (uint32_t i = begin; i < end; ++i) {
    const uint64_t v = constants[i];
    if (v == 0 || v == 1) {
      pinned[i - begin] = true;
      continue;
    }
    for (uint32_t j = begin; j < end; ++j) {
      if (j != i && constants[j] == v) {
        pinned[i - begin] = true;
        break;
      }
    }
  }

  PipelineSpec sentinel_spec = ClonePipelineSpec(spec);
  ReplaceSpecConstants(&sentinel_spec, begin, pinned);
  GeneratedPipeline generated = GeneratePipeline(sentinel_spec, bindings);
  BcProgram sentinel = TranslateToBytecode(
      *generated.mod->module().getFunction("worker"), registry,
      translator_options);

  // Any remaining structural drift (constant folding, a literal colliding
  // with a codegen-internal constant, ...) makes the artifact exact-match
  // only — never incorrect.
  if (!StructurallyEqual(sentinel, real)) return table;

  table.pool_indices.reserve(end - begin);
  std::vector<bool> literal_claimed(sentinel.literal_pool.size(), false);
  for (uint32_t i = begin; i < end; ++i) {
    if (pinned[i - begin]) {
      table.pool_indices.push_back(ConstantPatchTable::kPinned);
      continue;
    }
    // A sentinel lands either in the constant pool (register operand) or in
    // the literal pool (immediate-operand superinstruction); finding it in
    // both, twice, or neither makes the pipeline exact-match only.
    const uint64_t wanted = ConstantSentinel(i);
    int found_const = -1;
    int found_lit = -1;
    for (size_t p = 0; p < sentinel.constant_pool.size(); ++p) {
      if (sentinel.constant_pool[p].value == wanted) {
        if (found_const >= 0) return table;  // duplicated sentinel: bail
        found_const = static_cast<int>(p);
      }
    }
    for (size_t p = 0; p < sentinel.literal_pool.size(); ++p) {
      if (sentinel.literal_pool[p] == wanted) {
        if (found_lit >= 0) return table;
        found_lit = static_cast<int>(p);
      }
    }
    if ((found_const >= 0) == (found_lit >= 0)) return table;
    // The real program must carry the genuine literal in the same slot.
    if (found_const >= 0) {
      if (real.constant_pool[static_cast<size_t>(found_const)].value !=
          constants[i]) {
        return table;
      }
      table.pool_indices.push_back(static_cast<uint32_t>(found_const));
    } else {
      if (real.literal_pool[static_cast<size_t>(found_lit)] != constants[i]) {
        return table;
      }
      literal_claimed[static_cast<size_t>(found_lit)] = true;
      table.pool_indices.push_back(static_cast<uint32_t>(found_lit) |
                                   ConstantPatchTable::kLiteralPoolBit);
    }
  }
  // Every literal-pool entry not claimed by a sentinel (callee addresses,
  // pinned immediates) must match exactly, or the programs differ in ways
  // the patch table cannot express.
  for (size_t p = 0; p < sentinel.literal_pool.size(); ++p) {
    if (!literal_claimed[p] && sentinel.literal_pool[p] != real.literal_pool[p]) {
      return table;
    }
  }
  table.patchable = true;
  return table;
}

std::shared_ptr<BcProgram> ApplyConstantPatch(
    const BcProgram& program, const std::vector<uint32_t>& pool_indices,
    const std::vector<uint64_t>& baseline,
    const std::vector<uint64_t>& constants) {
  for (size_t k = 0; k < constants.size(); ++k) {
    if (pool_indices[k] == ConstantPatchTable::kPinned &&
        constants[k] != baseline[k]) {
      return nullptr;
    }
  }
  auto patched = std::make_shared<BcProgram>(program);
  for (size_t k = 0; k < constants.size(); ++k) {
    const uint32_t slot = pool_indices[k];
    if (slot == ConstantPatchTable::kPinned) continue;
    if (slot & ConstantPatchTable::kLiteralPoolBit) {
      // Immediate-operand superinstruction: the constant lives in the
      // literal pool, not in a register-file slot.
      patched->literal_pool[slot & ~ConstantPatchTable::kLiteralPoolBit] =
          constants[k];
    } else {
      patched->constant_pool[slot].value = constants[k];
    }
  }
  return patched;
}

}  // namespace aqe
