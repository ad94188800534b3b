#ifndef AQE_OBS_QUERY_PROFILE_H_
#define AQE_OBS_QUERY_PROFILE_H_

#include <string>

namespace aqe {

struct QueryRunResult;  // engine/query_engine.h

/// EXPLAIN ANALYZE of a completed query, rendered from its result alone:
/// per-pipeline time and throughput per execution mode, and one
/// predicted-vs-realized verdict line per mode switch.
std::string ExplainAnalyze(const QueryRunResult& result);

/// The same profile as one JSON object; what /profiles serves.
std::string ExplainAnalyzeJson(const QueryRunResult& result);

}  // namespace aqe

#endif  // AQE_OBS_QUERY_PROFILE_H_
