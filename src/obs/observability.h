#ifndef AQE_OBS_OBSERVABILITY_H_
#define AQE_OBS_OBSERVABILITY_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace aqe {

/// The observability hooks a pipeline execution carries with it: the
/// engine's tracer plus pre-resolved metric handles, so hot paths never
/// touch the registry. All pointers may be null (standalone runner/test
/// pipelines trace nothing); query_id 0 means "not a query".
struct PipelineObs {
  EngineTracer* tracer = nullptr;
  /// exec.morsels, added once per pipeline when its run quiesces.
  Counter* morsels = nullptr;
  Counter* mode_switch_decisions = nullptr;
  Counter* compiles = nullptr;
  Histogram* compile_us = nullptr;  ///< JIT compile latency
  uint32_t query_id = 0;

  bool enabled() const { return tracer != nullptr; }
};

}  // namespace aqe

#endif  // AQE_OBS_OBSERVABILITY_H_
