#ifndef AQE_EXEC_FUNCTION_HANDLE_H_
#define AQE_EXEC_FUNCTION_HANDLE_H_

#include <atomic>
#include <cstdint>

namespace aqe {

/// Execution modes of a worker function, ordered from lowest latency to
/// highest throughput (Fig 3).
enum class ExecMode : uint8_t { kBytecode = 0, kUnoptimized = 1, kOptimized = 2 };
constexpr int kNumExecModes = 3;

const char* ExecModeName(ExecMode mode);

/// The worker-function ABI (§III-A/IV-E):
///   worker(state, morsel_begin, morsel_end, extra)
/// `extra` carries the bytecode program for interpreted variants and is
/// redundant (but harmless) for machine code — which is precisely what lets
/// a single atomic pointer swap switch modes without tagged pointers or
/// extra branches.
using WorkerFn = void (*)(void* state, uint64_t begin, uint64_t end,
                          const void* extra);

/// The handle indirection of Fig 5: "instead of identifying a worker
/// function by its memory address, we introduce an additional handle…
/// To change the execution mode, one only needs to set a function pointer
/// in this handle object. Once set, all remaining morsels will be processed
/// using the new variant."
class FunctionHandle {
 public:
  /// Starts in bytecode mode with the engine's first worker (the VM, the IR
  /// interpreter or a baseline) and its `program` (owned by the caller).
  FunctionHandle(WorkerFn interpreter, const void* program);

  /// Installs a compiled variant. Threads pick it up on their next morsel.
  void SetCompiled(WorkerFn fn, ExecMode mode);

  /// Dispatches one morsel through the current fastest variant.
  void Call(void* state, uint64_t begin, uint64_t end) const {
    WorkerFn fn = fn_.load(std::memory_order_acquire);
    fn(state, begin, end, extra_.load(std::memory_order_acquire));
  }

  ExecMode mode() const { return mode_.load(std::memory_order_acquire); }
  bool is_compiled() const { return mode() != ExecMode::kBytecode; }

 private:
  std::atomic<WorkerFn> fn_;
  std::atomic<const void*> extra_;
  std::atomic<ExecMode> mode_{ExecMode::kBytecode};
};

}  // namespace aqe

#endif  // AQE_EXEC_FUNCTION_HANDLE_H_
