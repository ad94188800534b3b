#ifndef AQE_CODEGEN_QUERY_COMPILER_H_
#define AQE_CODEGEN_QUERY_COMPILER_H_

#include <memory>
#include <string>

#include "codegen/operator_codegen.h"
#include "ir/ir_module.h"
#include "plan/plan.h"

namespace aqe {

/// A pipeline translated to LLVM IR, with the bookkeeping the adaptive cost
/// model needs (instruction count, Fig 6) and the timing Fig 1 / Table I
/// report as "code generation".
struct GeneratedPipeline {
  std::unique_ptr<IrModule> mod;
  uint64_t instructions = 0;
  /// Loop-body IR counts for the runtime-call-density cost-model input
  /// (see IrFunctionStats): per-tuple instructions and opaque runtime
  /// calls the generated code pays in every execution mode.
  uint64_t loop_instructions = 0;
  uint64_t loop_calls = 0;
  double codegen_millis = 0;
};

/// Resolves a pipeline's runtime addresses against a query context: scan
/// column base pointers, join tables, aggregation sets, output buffers.
/// Seals every join table the pipeline probes (JoinHashTable::Seal): its
/// build is complete once a pipeline that probes it is bound.
PipelineBindings BindPipeline(const QueryProgram& program,
                              const PipelineSpec& spec,
                              const QueryContext& ctx);

/// Generates the worker-function module for one pipeline. Deterministic:
/// the adaptive controller re-invokes it for each compilation request
/// (code generation costs well under a millisecond, Fig 1).
GeneratedPipeline GeneratePipeline(const PipelineSpec& spec,
                                   const PipelineBindings& bindings,
                                   const std::string& fn_name = "worker");

}  // namespace aqe

#endif  // AQE_CODEGEN_QUERY_COMPILER_H_
