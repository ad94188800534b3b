#ifndef AQE_OBS_OBSERVABILITY_H_
#define AQE_OBS_OBSERVABILITY_H_

#include <cstdint>

#include "obs/tracer.h"

namespace aqe {

/// The observability hook a pipeline execution carries with it: the
/// engine's tracer, which records the run's trace events live. The run's
/// counts reach the metrics registry through its PipelineReport, when the
/// engine folds the finished query. A null tracer (standalone runner/test
/// pipelines) traces nothing; query_id 0 means "not a query".
struct PipelineObs {
  EngineTracer* tracer = nullptr;
  uint32_t query_id = 0;

  bool enabled() const { return tracer != nullptr; }
};

}  // namespace aqe

#endif  // AQE_OBS_OBSERVABILITY_H_
