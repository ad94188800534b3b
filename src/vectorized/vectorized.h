#ifndef AQE_VECTORIZED_VECTORIZED_H_
#define AQE_VECTORIZED_VECTORIZED_H_

#include "plan/plan.h"

namespace aqe {

/// Column-at-a-time execution of a pipeline — the MonetDB stand-in of
/// Tables I/II (see DESIGN.md): no compilation, tight per-primitive loops
/// over vectors of 1024 values with selection vectors, paying
/// materialization instead of per-tuple interpretation overhead. A worker
/// over the source rows [begin, end) whose `state` is the
/// InterpretedPipeline.
void VectorizedWorker(void* state, uint64_t begin, uint64_t end,
                      const void* extra);

}  // namespace aqe

#endif  // AQE_VECTORIZED_VECTORIZED_H_
