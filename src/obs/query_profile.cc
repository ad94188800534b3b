#include "obs/query_profile.h"

#include <algorithm>
#include <cmath>

#include "engine/query_engine.h"
#include "obs/export.h"

namespace aqe {

namespace {

/// The query-level numbers EXPLAIN ANALYZE and the flamegraph derive from
/// the result's own fields, so each keeps one source.
struct Derived {
  /// Exec time outside the pipelines (join-table finalize, aggregate
  /// merge, top-k): exec_seconds_total minus the pipelines' exec-only time.
  double engine_step_seconds = 0;
  double compile_seconds = 0;  ///< JIT time this query paid itself
  uint64_t compiles = 0;
};

Derived Derive(const QueryRunResult& r) {
  Derived d;
  double pipeline_exec_only = 0;
  for (const PipelineReport& pp : r.pipelines) {
    pipeline_exec_only += pp.exec_only_seconds;
    d.compiles += pp.compiles.size();
  }
  d.engine_step_seconds =
      std::max(0.0, r.exec_seconds_total - pipeline_exec_only);
  d.compile_seconds = r.compile_millis_total / 1e3;
  return d;
}

/// A mode of `r`'s pipelines, named; a baseline's worker never changes
/// mode, so the engine names it.
const char* ModeLabel(const QueryRunResult& r, ExecMode mode) {
  return r.engine == EngineKind::kCompiled ? ExecModeName(mode)
                                           : EngineKindName(r.engine);
}

/// Whether the code `pp`'s i-th mode switch asked for ever ran. A run
/// decides a switch only after the last one installed, so only its last
/// can have no compile: one aborted while queued, finished after the
/// drain, or failed.
bool SwitchRan(const PipelineReport& pp, size_t i) {
  return i < pp.compiles.size();
}

/// A plan name as one flamegraph frame. flamegraph.pl splits a line at
/// every ';' and at its last space, so those and control bytes become '_'.
std::string FrameName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == ';' || c == ' ' || u < 0x20 || u == 0x7f) c = '_';
  }
  return out;
}

}  // namespace

void Flamegraph::Add(const QueryRunResult& r) {
  const std::string plan = "engine;" + FrameName(r.plan_name) + ";";
  // This query's seconds per stack; each is rounded to µs once, summed.
  std::map<std::string, double> seconds;
  for (const PipelineReport& pp : r.pipelines) {
    const std::string pipeline =
        plan + "pipeline" + std::to_string(pp.pipeline_index) + ";";
    for (const ModeSliceProfile& m : pp.modes) {
      seconds[pipeline + ModeLabel(r, m.mode) + ";morsel"] += m.busy_seconds;
    }
    for (const auto& [mode, compile_seconds] : pp.compiles) {
      seconds[pipeline + ExecModeName(mode) + ";compile"] += compile_seconds;
    }
    seconds[pipeline + "codegen"] +=
        (pp.codegen_millis + pp.translate_millis) / 1e3;
  }
  seconds[plan + "engine-step"] += Derive(r).engine_step_seconds;
  for (const auto& [stack, s] : seconds) {
    const long long us = std::llround(s * 1e6);
    if (us <= 0) continue;
    auto it = stacks_.find(stack);
    if (it != stacks_.end()) {
      it->second += static_cast<uint64_t>(us);
    } else if (stacks_.size() < kMaxStacks) {
      stacks_.emplace(stack, static_cast<uint64_t>(us));
    } else {
      overflow_us_ += static_cast<uint64_t>(us);
    }
  }
}

std::string Flamegraph::CollapsedStacks() const {
  std::string out;
  for (const auto& [stack, us] : stacks_) {
    out += stack;
    out += ' ';
    out += std::to_string(us);
    out += '\n';
  }
  if (overflow_us_ > 0) {
    out += "engine;overflow " + std::to_string(overflow_us_) + "\n";
  }
  return out;
}

void Flamegraph::Clear() {
  stacks_.clear();
  overflow_us_ = 0;
}

std::string ExplainAnalyzeJson(const QueryRunResult& r) {
  const Derived d = Derive(r);
  std::string out;
  out.reserve(1024);
  Append(out,
         "{\"query\":%u,\"plan\":\"%s\",\"total_s\":%.6f,"
         "\"queue_wait_s\":%.6f,\"exec_s\":%.6f,\"engine_step_s\":%.6f,"
         "\"on_cpu_s\":%.6f,"
         "\"compile_s\":%.6f,\"compiles\":%llu,\"cache_hits\":%llu,"
         "\"peak_memory_bytes\":%llu,"
         "\"pipelines\":[",
         r.query_id, JsonEscape(r.plan_name).c_str(), r.total_seconds,
         r.queue_wait_seconds, r.exec_seconds_total, d.engine_step_seconds,
         r.on_cpu_seconds, d.compile_seconds,
         static_cast<unsigned long long>(d.compiles),
         static_cast<unsigned long long>(r.cache_hits),
         static_cast<unsigned long long>(r.peak_memory_bytes));
  bool first_p = true;
  for (const PipelineReport& pp : r.pipelines) {
    Append(out,
           "%s{\"name\":\"%s\",\"index\":%u,\"tuples\":%llu,"
           "\"wall_s\":%.6f,\"exec_only_s\":%.6f,\"initial_mode\":\"%s\","
           "\"final_mode\":\"%s\",\"cache_hit\":%s,",
           first_p ? "" : ",", JsonEscape(pp.name).c_str(),
           pp.pipeline_index, static_cast<unsigned long long>(pp.tuples),
           pp.exec_seconds, pp.exec_only_seconds,
           ModeLabel(r, pp.initial_mode), ModeLabel(r, pp.final_mode),
           pp.artifact_cache_hit ? "true" : "false");
    first_p = false;
    if (pp.pruning.analyzed) {
      Append(out,
             "\"pruning\":{\"path\":\"%s\",\"selected_rows\":%llu,"
             "\"table_rows\":%llu,\"selected_fraction\":%.6f,"
             "\"zone_blocks_pruned\":%llu,\"zone_blocks_total\":%llu,"
             "\"posting_entries\":%llu,\"domain_ranges\":%llu,"
             "\"analysis_s\":%.6f,\"cached\":%s},",
             AccessPathKindName(pp.pruning.primary_path),
             static_cast<unsigned long long>(pp.pruning.selected_rows),
             static_cast<unsigned long long>(pp.pruning.table_rows),
             pp.pruning.selected_fraction(),
             static_cast<unsigned long long>(pp.pruning.zone_blocks_pruned),
             static_cast<unsigned long long>(pp.pruning.zone_blocks_total),
             static_cast<unsigned long long>(pp.pruning.posting_entries),
             static_cast<unsigned long long>(pp.pruning.domain_ranges),
             pp.pruning.analysis_seconds,
             pp.pruning_cache_hit ? "true" : "false");
    }
    out += "\"modes\":[";
    bool first_m = true;
    for (const ModeSliceProfile& m : pp.modes) {
      Append(out,
             "%s{\"mode\":\"%s\",\"morsels\":%llu,\"tuples\":%llu,"
             "\"busy_s\":%.6f,\"wall_s\":%.6f,\"tuples_per_s\":%.0f}",
             first_m ? "" : ",", ModeLabel(r, m.mode),
             static_cast<unsigned long long>(m.morsels),
             static_cast<unsigned long long>(m.tuples), m.busy_seconds,
             m.wall_seconds, m.tuples_per_sec());
      first_m = false;
    }
    out += "],\"switches\":[";
    for (size_t i = 0; i < pp.mode_switches.size(); ++i) {
      const ModeSwitchRecord& sw = pp.mode_switches[i];
      Append(out,
             "%s{\"target\":\"%s\",\"r0\":%.1f,\"remaining\":%llu,"
             "\"t_current_s\":%.6f,\"predicted_s\":%.6f,"
             "\"realized_s\":%.6f,\"error_pct\":%.1f,\"ran\":%s}",
             i == 0 ? "" : ",", ExecModeName(sw.target), sw.r0,
             static_cast<unsigned long long>(sw.remaining_tuples),
             sw.t_current_seconds, sw.t_chosen_seconds,
             sw.realized_seconds, sw.error_pct(),
             SwitchRan(pp, i) ? "true" : "false");
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ExplainAnalyze(const QueryRunResult& r) {
  const Derived d = Derive(r);
  std::string out;
  Append(out, "EXPLAIN ANALYZE  %s  (query %u)\n", r.plan_name.c_str(),
         r.query_id);
  Append(out,
         "  total %.3f ms = queue %.3f ms + service %.3f ms; exec %.3f ms; "
         "on-cpu %.3f ms\n",
         r.total_seconds * 1e3, r.queue_wait_seconds * 1e3,
         (r.total_seconds - r.queue_wait_seconds) * 1e3,
         r.exec_seconds_total * 1e3, r.on_cpu_seconds * 1e3);
  Append(out, "  compile %.3f ms this query (%llu jits, %llu cache hits)\n",
         d.compile_seconds * 1e3,
         static_cast<unsigned long long>(d.compiles),
         static_cast<unsigned long long>(r.cache_hits));
  Append(out, "  engine steps %.3f ms (finalize / merge / top-k)\n",
         d.engine_step_seconds * 1e3);
  Append(out, "  peak memory %llu bytes\n",
         static_cast<unsigned long long>(r.peak_memory_bytes));
  for (const PipelineReport& pp : r.pipelines) {
    Append(out,
           "  pipeline %u \"%s\": %.3f ms wall (%.3f ms exec-only), "
           "%llu tuples, %s -> %s%s\n",
           pp.pipeline_index, pp.name.c_str(), pp.exec_seconds * 1e3,
           pp.exec_only_seconds * 1e3,
           static_cast<unsigned long long>(pp.tuples),
           ModeLabel(r, pp.initial_mode), ModeLabel(r, pp.final_mode),
           pp.artifact_cache_hit ? ", cache hit" : "");
    if (pp.pruning.analyzed) {
      Append(out,
             "    access path %-10s: %llu / %llu rows scheduled (%.1f%%), "
             "%llu / %llu zone blocks pruned, %llu posting entries, "
             "%llu ranges, analysis %.3f ms%s\n",
             AccessPathKindName(pp.pruning.primary_path),
             static_cast<unsigned long long>(pp.pruning.selected_rows),
             static_cast<unsigned long long>(pp.pruning.table_rows),
             pp.pruning.selected_fraction() * 100.0,
             static_cast<unsigned long long>(pp.pruning.zone_blocks_pruned),
             static_cast<unsigned long long>(pp.pruning.zone_blocks_total),
             static_cast<unsigned long long>(pp.pruning.posting_entries),
             static_cast<unsigned long long>(pp.pruning.domain_ranges),
             pp.pruning.analysis_seconds * 1e3,
             pp.pruning_cache_hit ? "  [cached decision]" : "");
    }
    for (const ModeSliceProfile& m : pp.modes) {
      Append(out,
             "    mode %-11s: %6llu morsels, %10llu tuples, "
             "%8.3f ms busy, %8.3f ms wall, %7.2f M tuples/s\n",
             ModeLabel(r, m.mode),
             static_cast<unsigned long long>(m.morsels),
             static_cast<unsigned long long>(m.tuples),
             m.busy_seconds * 1e3, m.wall_seconds * 1e3,
             m.tuples_per_sec() / 1e6);
    }
    for (size_t i = 0; i < pp.mode_switches.size(); ++i) {
      const ModeSwitchRecord& sw = pp.mode_switches[i];
      Append(out,
             "    switch -> %s: predicted %.3f ms (stay: %.3f ms), "
             "realized %.3f ms, error %+.1f%%  [r0=%.0f t/s, %llu tuples "
             "remained]%s\n",
             ExecModeName(sw.target), sw.t_chosen_seconds * 1e3,
             sw.t_current_seconds * 1e3, sw.realized_seconds * 1e3,
             sw.error_pct(), sw.r0,
             static_cast<unsigned long long>(sw.remaining_tuples),
             SwitchRan(pp, i) ? "" : "  (its code never ran)");
    }
  }
  return out;
}

}  // namespace aqe
