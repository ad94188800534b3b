#ifndef AQE_VOLCANO_VOLCANO_H_
#define AQE_VOLCANO_VOLCANO_H_

#include "plan/plan.h"

namespace aqe {

/// Volcano-style tuple-at-a-time interpretation of a pipeline — the
/// PostgreSQL stand-in of Tables I/II (see DESIGN.md): no compilation of
/// any kind, one virtual-dispatch-style expression walk per tuple, rows
/// pulled through the operator chain one at a time. A worker over the
/// source rows [begin, end) whose `state` is the InterpretedPipeline.
void VolcanoWorker(void* state, uint64_t begin, uint64_t end,
                   const void* extra);

}  // namespace aqe

#endif  // AQE_VOLCANO_VOLCANO_H_
