#ifndef AQE_VM_TRANSLATOR_H_
#define AQE_VM_TRANSLATOR_H_

#include <memory>

#include <llvm/IR/Function.h>

#include "common/status.h"
#include "runtime/runtime_registry.h"
#include "vm/bytecode.h"
#include "vm/register_allocator.h"

namespace aqe {

/// Options for LLVM-IR-to-bytecode translation.
struct TranslatorOptions {
  RegAllocStrategy strategy = RegAllocStrategy::kLoopAware;
  /// Window size (in blocks) for RegAllocStrategy::kWindow.
  int window_size = 16;
  /// Enables the §IV-F macro-op fusion (overflow-check sequences and
  /// GEP+load/store pairs collapse to one VM instruction each).
  bool fuse_macro_ops = true;
  /// Enables the compare-and-branch peephole (extends §IV-F): a single-use
  /// icmp/fcmp feeding the block's condbr fuses into one br_<pred>_<ty>
  /// superinstruction. Independent of fuse_macro_ops so the ablation bench
  /// can isolate its effect.
  bool fuse_cmp_branches = true;
  /// Enables the third superinstruction tier (br_load_*): a single-use
  /// indexed load feeding an already-fused compare-and-branch folds into it,
  /// executing the whole scan-filter kernel body — load, compare, branch —
  /// in one dispatch. Only effective together with fuse_macro_ops and
  /// fuse_cmp_branches (it builds on both fused GEPs and fused compares).
  bool fuse_load_cmp_branches = true;
  /// Splits a conditional branch whose condition is a single-use conjunction
  /// (`and i1` tree) of block-local predicates into a short-circuit chain of
  /// branches, so each fusable compare becomes its own br_* superinstruction
  /// and the first failing term exits the row early. The JIT keeps the
  /// original and-tree IR (which LLVM vectorizes); only the bytecode sees
  /// the chain. Only effective together with fuse_cmp_branches.
  bool fuse_branch_chains = true;
};

/// Process-wide cumulative translation counters, accumulated by every
/// TranslateToBytecode call (each BcProgram also carries its own per-program
/// counts). The engine's observability snapshot reports these; benches
/// reset them between phases so warm-phase numbers stay clean.
struct TranslatorCounters {
  uint64_t programs = 0;            ///< translations performed
  uint64_t bytecode_ops = 0;        ///< VM instructions emitted
  uint64_t fused_instructions = 0;  ///< LLVM instructions folded by fusion
  uint64_t fused_cmp_branches = 0;
  uint64_t fused_load_cmp_branches = 0;
};

TranslatorCounters TranslatorCountersSnapshot();
void ResetTranslatorCounters();

/// Translates `fn` into a BcProgram following Fig 9: compute liveness and
/// block order, select what each instruction emits, then translate block by
/// block, allocating registers as values become live, folding swallowed
/// instruction sequences, propagating phi values at block ends, and
/// releasing registers whose values died. Linear in the size of the
/// function.
///
/// Calls must target functions registered in `registry` (resolved here, at
/// translation time, so the interpreter just jumps through the immediate).
///
/// A program whose registers do not fit the instructions' 16-bit operand
/// fields (more than 65,536 slots) cannot be encoded: with a `status`, that
/// failure sets it to an error and returns an empty program; without one,
/// it aborts. On success `*status` is OK.
BcProgram TranslateToBytecode(const llvm::Function& fn,
                              const RuntimeRegistry& registry,
                              const TranslatorOptions& options = {},
                              Status* status = nullptr);

}  // namespace aqe

#endif  // AQE_VM_TRANSLATOR_H_
