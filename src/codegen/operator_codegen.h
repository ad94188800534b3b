#ifndef AQE_CODEGEN_OPERATOR_CODEGEN_H_
#define AQE_CODEGEN_OPERATOR_CODEGEN_H_

#include <string>
#include <vector>

#include "ir/ir_module.h"
#include "plan/pipeline.h"
#include "storage/column.h"

namespace aqe {

/// Where generated code takes a plan literal (kConstI64 / kConstF64) from.
/// The IR's consumer decides: bytecode binds its literals, so one translated
/// program serves every literal variant of a plan shape; machine code
/// embeds them, so LLVM can fold them (src/cache/DESIGN.md, "Literals").
enum class LiteralForm {
  kBound,      ///< loaded from the binding array: IR translated to bytecode
  kImmediate,  ///< embedded as IR constants: IR compiled to machine code
};

/// Resolved runtime addresses for one pipeline. The generated worker does
/// NOT embed them: it loads them from the packed binding array (`Pack()`)
/// passed through the worker's `state` argument, so the same bytecode and
/// machine code can be re-executed against a different QueryContext — the
/// property the plan-keyed artifact cache relies on (src/cache/DESIGN.md).
/// Codegen only consumes the *shape* of the bindings (counts and column
/// types); the addresses matter at run time.
struct PipelineBindings {
  std::vector<const void*> column_data;  ///< per scan column, base pointer
  std::vector<DataType> column_types;    ///< per scan column
  std::vector<void*> join_tables;        ///< per program join-table id
  std::vector<void*> agg_sets;           ///< per program agg id
  std::vector<void*> outputs;            ///< per program output id
  std::vector<const uint8_t*> bitmaps;   ///< per program bitmap, decl order
  /// Per program LIKE predicate, decl order (src/strings/).
  std::vector<const LikePredicate*> like_preds;
  /// Raw bits (f64 bit-cast) of each plan literal of the pipeline, in
  /// PipelineLiterals order. Only LiteralForm::kBound code reads them.
  std::vector<uint64_t> literals;

  /// Slot indices (8-byte units) into the packed binding array. The layout
  /// is a pure function of the counts, so structurally equal plans agree on
  /// it even when the addresses differ.
  size_t ColumnSlot(size_t c) const { return c; }
  size_t JoinTableSlot(size_t id) const { return column_data.size() + id; }
  size_t AggSetSlot(size_t id) const {
    return column_data.size() + join_tables.size() + id;
  }
  size_t OutputSlot(size_t id) const {
    return column_data.size() + join_tables.size() + agg_sets.size() + id;
  }
  size_t BitmapSlot(size_t id) const {
    return column_data.size() + join_tables.size() + agg_sets.size() +
           outputs.size() + id;
  }
  size_t LikePredSlot(size_t id) const {
    return column_data.size() + join_tables.size() + agg_sets.size() +
           outputs.size() + bitmaps.size() + id;
  }
  size_t LiteralSlot(size_t k) const {
    return column_data.size() + join_tables.size() + agg_sets.size() +
           outputs.size() + bitmaps.size() + like_preds.size() + k;
  }
  size_t NumSlots() const { return LiteralSlot(literals.size()); }

  /// The per-run binding array the worker receives as `state`. The caller
  /// keeps the vector alive for the duration of the pipeline.
  std::vector<uint64_t> Pack() const;
};

/// Emits `void <fn_name>(i64 state, i64 begin, i64 end, i64 extra)` into
/// `mod`: the §III-A worker function — a scan loop over [begin, end) rows,
/// the per-tuple operator chain, and the sink. All four parameters are i64
/// so the same function is callable as the WorkerFn ABI by machine code and
/// through the VM. `state` must point at `bindings.Pack()` when the worker
/// runs; all binding loads are hoisted into the entry block. Returns the
/// number of instructions that load literals (0 for kImmediate).
uint64_t EmitWorkerFunction(const PipelineSpec& spec,
                            const PipelineBindings& bindings,
                            LiteralForm literal_form, IrModule* mod,
                            const std::string& fn_name = "worker");

}  // namespace aqe

#endif  // AQE_CODEGEN_OPERATOR_CODEGEN_H_
