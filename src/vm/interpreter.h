#ifndef AQE_VM_INTERPRETER_H_
#define AQE_VM_INTERPRETER_H_

#include <cstdint>
#include <vector>

#include "vm/bytecode.h"

namespace aqe {

// The threaded engine needs the GCC/Clang label-address extension.
#if defined(__GNUC__) || defined(__clang__)
#define AQE_VM_HAS_COMPUTED_GOTO 1
#else
#define AQE_VM_HAS_COMPUTED_GOTO 0
#endif

/// True when the direct-threaded (computed-goto) engine was compiled in.
bool VmThreadedDispatchAvailable();

/// The loop the engine runs bytecode with, picked by the build: the CMake
/// switch AQE_VM_DISPATCH=THREADED|SWITCH, and SWITCH on compilers without
/// the label-address extension.
#if defined(AQE_VM_DISPATCH_SWITCH) || !AQE_VM_HAS_COMPUTED_GOTO
inline constexpr VmDispatch kVmBuildDispatch = VmDispatch::kSwitch;
#else
inline constexpr VmDispatch kVmBuildDispatch = VmDispatch::kThreaded;
#endif

/// While enabled, interpreted execution routes through the counting switch
/// loop and bumps the per-opcode dispatch counters that VmProfileCounts()
/// reads (the engine's vm.op.* metrics). Thread-safe; affects morsels
/// started after the switch.
void VmSetProfileCounting(bool enabled);

struct VmOpcodeCount {
  const char* opcode;  ///< static OpcodeName string
  uint64_t count;
};

/// Non-zero per-opcode dispatch counts, in opcode order.
std::vector<VmOpcodeCount> VmProfileCounts();

/// Zeroes the dispatch counters (phase-delta hygiene).
void VmResetProfileCounts();

/// Executes a translated program with the given arguments (each argument is
/// one 8-byte register slot: integers zero/sign-agnostic raw bits, pointers
/// as addresses, doubles bit-cast). Returns the raw 8-byte slot of the `ret`
/// instruction (0 for `ret_void`); callers mask to the function's return
/// width.
///
/// `dispatch` picks the interpreter loop. The engine runs the build's loop;
/// the differential tests and the dispatch benchmark name one. Both loops
/// execute the identical handler list (vm/interpreter_ops.inc) and produce
/// bit-identical results.
///
/// The register file lives on the interpreter's stack when it fits (§IV-A);
/// larger files fall back to the heap.
uint64_t VmExecute(const BcProgram& program, const uint64_t* args,
                   int num_args, VmDispatch dispatch = kVmBuildDispatch);

/// The worker-function ABI (exec/function_handle.h's WorkerFn) run in the
/// VM: `program` is the BcProgram. The program receives
/// (state, begin, end, program) as its arguments (§IV-E: the trailing one
/// is redundant for machine code, required by the VM).
void VmExecuteWorker(void* state, uint64_t begin, uint64_t end,
                     const void* program);

}  // namespace aqe

#endif  // AQE_VM_INTERPRETER_H_
