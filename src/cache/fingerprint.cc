#include "cache/fingerprint.h"

#include <cstring>

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
  /// not hashed — pattern-only variants share artifacts because the
  /// matcher flows through the binding array.
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
  h.U64((options.fuse_branch_chains ? 8 : 0) |
        (options.fuse_load_cmp_branches ? 4 : 0) |
        (options.fuse_macro_ops ? 2 : 0) | (options.fuse_cmp_branches ? 1 : 0));
  return h.digest();
}

}  // namespace aqe
