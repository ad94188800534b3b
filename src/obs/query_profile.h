#ifndef AQE_OBS_QUERY_PROFILE_H_
#define AQE_OBS_QUERY_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace aqe {

struct QueryRunResult;  // engine/query_engine.h

/// EXPLAIN ANALYZE of a completed query, rendered from its result alone:
/// per-pipeline time and throughput per execution mode, and one
/// predicted-vs-realized verdict line per mode switch.
std::string ExplainAnalyze(const QueryRunResult& result);

/// The same profile as one JSON object; what /profiles serves.
std::string ExplainAnalyzeJson(const QueryRunResult& result);

/// Where finished queries spent their CPU, by plan, as collapsed stacks
/// (flamegraph.pl / speedscope input). Each query adds, per frame, the
/// llround in µs of a time its result already holds (src/obs/DESIGN.md,
/// "Flamegraph"). Bounded: once kMaxStacks distinct stacks exist, the
/// time of any further stack goes to `engine;overflow`. Not thread-safe;
/// the engine serializes it.
class Flamegraph {
 public:
  static constexpr size_t kMaxStacks = 4096;

  void Add(const QueryRunResult& result);
  /// One `frame;frame;... <µs>` line per stack, in stack order.
  std::string CollapsedStacks() const;
  void Clear();

 private:
  std::map<std::string, uint64_t> stacks_;
  uint64_t overflow_us_ = 0;
};

}  // namespace aqe

#endif  // AQE_OBS_QUERY_PROFILE_H_
