#ifndef AQE_JIT_JIT_COMPILER_H_
#define AQE_JIT_JIT_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "ir/ir_module.h"
#include "runtime/runtime_registry.h"

namespace aqe {

/// Machine-code generation modes (§V "unoptimized" / "optimized"):
///  - kUnoptimized: no IR passes, fast instruction selection, lowest backend
///    optimization level — cheap compilation, decent code.
///  - kOptimized: instcombine (peephole), reassociate, EarlyCSE over
///    MemorySSA, CFG simplification and aggressive DCE, plus full backend
///    optimization — dearer compilation, fastest code. This departs from
///    the paper's hand-picked list, which eliminates common subexpressions
///    by global value numbering: that pass's time per instruction grows
///    with the function, so a large generated query's compile grew
///    superlinearly, while EarlyCSE's stays flat (src/jit/DESIGN.md).
enum class JitMode { kUnoptimized, kOptimized };

const char* JitModeName(JitMode mode);

/// A module compiled to machine code: one JITDylib in the process-wide ORC
/// session, linked against its registry's runtime JITDylib. It owns only
/// its code pages and symbol addresses; the session, the target machines
/// and the runtime symbols are shared by every module. Destroying it
/// removes the JITDylib and unmaps its code, so looked-up addresses stay
/// valid exactly as long as this object.
class CompiledModule {
 public:
  virtual ~CompiledModule() = default;

  /// Address of a compiled function, or nullptr if absent.
  virtual void* Lookup(const std::string& name) const = 0;

  /// Time spent running IR optimization passes (ms; 0 for unoptimized).
  virtual double ir_pass_millis() const = 0;
  /// Bytes of the code and data sections the linker allocated for this
  /// module. The artifact cache charges this against its byte budget.
  virtual uint64_t code_bytes() const = 0;
};

/// Compiles `mod` (consumed) to machine code. Runtime functions registered
/// in `registry` are resolvable as absolute symbols; a registry must be
/// fully populated before its first compile. Compilation is eager: when
/// this returns, Lookup is a hash lookup, not a compile. On failure (for
/// example a call to a function missing from `registry`) returns nullptr
/// and sets `*status` to LLVM's error text; on success sets it to OK.
/// Safe to call from any number of threads at once.
std::unique_ptr<CompiledModule> JitCompile(IrModule mod, JitMode mode,
                                           const RuntimeRegistry& registry,
                                           Status* status);

}  // namespace aqe

#endif  // AQE_JIT_JIT_COMPILER_H_
