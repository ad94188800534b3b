#ifndef AQE_JIT_NAIVE_INTERPRETER_H_
#define AQE_JIT_NAIVE_INTERPRETER_H_

#include <cstdint>

#include <llvm/IR/Function.h>

#include "runtime/runtime_registry.h"

namespace aqe {

/// Direct interpreter over llvm::Instruction objects — the stand-in for
/// LLVM's built-in IR interpreter in Fig 2 ("LLVM IR"). Intentionally built
/// the way that interpreter is built: it chases the pointer-based in-memory
/// IR representation and dispatches each instruction on its runtime operand
/// type, which is exactly why the paper measures it ~800x slower than
/// machine code and why the bytecode VM of §IV exists.
///
/// Arguments/return use the same raw 8-byte-slot convention as VmExecute.
uint64_t NaiveIrInterpret(const llvm::Function& fn, const uint64_t* args,
                          int num_args, const RuntimeRegistry& registry);

/// NaiveIrInterpret as a worker (exec/function_handle.h): `extra` is the
/// generated `llvm::Function`, `state` its packed binding array.
void NaiveIrWorker(void* state, uint64_t begin, uint64_t end,
                   const void* function);

}  // namespace aqe

#endif  // AQE_JIT_NAIVE_INTERPRETER_H_
