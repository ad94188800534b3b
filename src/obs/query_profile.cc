#include "obs/query_profile.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "engine/query_engine.h"

namespace aqe {

namespace {

void Append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Wall-clock footprint of a set of (possibly overlapping, multi-worker)
/// intervals: merge and sum. Destroys the input order.
double UnionSeconds(std::vector<Interval>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cur_start = intervals.front().start;
  int64_t cur_end = intervals.front().end;
  for (const Interval& iv : intervals) {
    if (iv.start > cur_end) {
      covered += cur_end - cur_start;
      cur_start = iv.start;
      cur_end = iv.end;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  covered += cur_end - cur_start;
  return static_cast<double>(covered) / 1e9;
}

/// Aggregation state per (pipeline, mode) while folding morsel events:
/// the slice so far plus the morsel intervals its wall time is the union of.
struct ModeAgg {
  ModeSliceProfile slice;
  std::vector<Interval> intervals;
};

}  // namespace

QueryProfile BuildQueryProfile(const TraceSnapshot& snapshot,
                               const QueryRunResult& result,
                               uint32_t query_id,
                               const std::string& plan_name) {
  QueryProfile prof;
  prof.query_id = query_id;
  prof.plan_name = plan_name;
  prof.total_seconds = result.total_seconds;
  prof.queue_wait_seconds = result.queue_wait_seconds;
  prof.exec_seconds = result.exec_seconds_total;

  // Fold the query's events: per-(pipeline, mode) morsel aggregates, task
  // slices (for on-CPU attribution), compiles and cache hits.
  std::map<std::pair<uint16_t, uint8_t>, ModeAgg> modes;
  struct LaneSpans {
    std::vector<Interval> slices;   // sorted later
    std::vector<Interval> morsels;  // candidates for outside-slice credit
  };
  std::map<int, LaneSpans> lanes;
  for (const auto& lane : snapshot.lanes) {
    // Conservative: a lane that dropped *any* events may have lost part of
    // this query's window, so aggregates below can undercount.
    if (lane.dropped > 0) prof.lossy = true;
    for (const TraceEvent& e : lane.events) {
      if (e.query_id != query_id) continue;
      switch (e.kind) {
        case TraceEventKind::kMorsel: {
          ModeAgg& agg = modes[{e.pipeline_id, e.detail}];
          ++agg.slice.morsels;
          agg.slice.tuples += e.payload;
          agg.slice.busy_seconds +=
              static_cast<double>(e.end_nanos - e.start_nanos) / 1e9;
          agg.intervals.push_back({e.start_nanos, e.end_nanos});
          lanes[lane.lane].morsels.push_back({e.start_nanos, e.end_nanos});
          break;
        }
        case TraceEventKind::kTaskSlice:
          prof.on_cpu_seconds +=
              static_cast<double>(e.end_nanos - e.start_nanos) / 1e9;
          lanes[lane.lane].slices.push_back({e.start_nanos, e.end_nanos});
          break;
        case TraceEventKind::kCompile:
          prof.compile_seconds +=
              static_cast<double>(e.end_nanos - e.start_nanos) / 1e9;
          ++prof.compiles;
          break;
        case TraceEventKind::kCacheHit:
          ++prof.cache_hits;
          break;
        default:
          break;
      }
    }
  }

  // On-CPU credit for helper morsels: the controller's morsels run inside
  // the query's own task slices (already counted); helper-task morsels on
  // other workers have no enclosing slice of this query and count extra.
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.slices.begin(), spans.slices.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    for (const Interval& m : spans.morsels) {
      auto it = std::upper_bound(
          spans.slices.begin(), spans.slices.end(), m,
          [](const Interval& a, const Interval& b) {
            return a.start < b.start;
          });
      const bool inside = it != spans.slices.begin() &&
                          std::prev(it)->end >= m.end;
      if (!inside) {
        prof.on_cpu_seconds += static_cast<double>(m.end - m.start) / 1e9;
      }
    }
  }

  for (const PipelineReport& report : result.pipelines) {
    PipelineReport pp = report;
    for (uint8_t mode = 0; mode <= 2; ++mode) {
      auto it = modes.find({static_cast<uint16_t>(pp.pipeline_index), mode});
      if (it == modes.end()) continue;
      ModeSliceProfile& slice = pp.modes.emplace_back(it->second.slice);
      slice.mode = static_cast<ExecMode>(mode);
      slice.wall_seconds = UnionSeconds(it->second.intervals);
    }
    prof.pipelines.push_back(std::move(pp));
  }
  double pipeline_exec_only = 0;
  for (const PipelineReport& pp : prof.pipelines) {
    pipeline_exec_only += pp.exec_only_seconds;
  }
  prof.engine_step_seconds =
      std::max(0.0, prof.exec_seconds - pipeline_exec_only);
  return prof;
}

std::string QueryProfile::ToJson() const {
  std::string out;
  out.reserve(1024);
  Append(out,
         "{\"query\":%u,\"plan\":\"%s\",\"total_s\":%.6f,"
         "\"queue_wait_s\":%.6f,\"exec_s\":%.6f,\"engine_step_s\":%.6f,"
         "\"on_cpu_s\":%.6f,"
         "\"compile_s\":%.6f,\"compiles\":%llu,\"cache_hits\":%llu,"
         "\"cpu_samples\":%llu,\"peak_memory_bytes\":%llu,"
         "\"lossy\":%s,\"pipelines\":[",
         query_id, JsonEscape(plan_name).c_str(), total_seconds,
         queue_wait_seconds, exec_seconds, engine_step_seconds,
         on_cpu_seconds, compile_seconds,
         static_cast<unsigned long long>(compiles),
         static_cast<unsigned long long>(cache_hits),
         static_cast<unsigned long long>(cpu_samples),
         static_cast<unsigned long long>(peak_memory_bytes),
         lossy ? "true" : "false");
  bool first_p = true;
  for (const PipelineReport& pp : pipelines) {
    Append(out,
           "%s{\"name\":\"%s\",\"index\":%u,\"tuples\":%llu,"
           "\"wall_s\":%.6f,\"exec_only_s\":%.6f,\"initial_mode\":\"%s\","
           "\"final_mode\":\"%s\",\"cache_hit\":%s,",
           first_p ? "" : ",", JsonEscape(pp.name).c_str(),
           pp.pipeline_index, static_cast<unsigned long long>(pp.tuples),
           pp.exec_seconds, pp.exec_only_seconds,
           ExecModeName(pp.initial_mode), ExecModeName(pp.final_mode),
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
             first_m ? "" : ",", ExecModeName(m.mode),
             static_cast<unsigned long long>(m.morsels),
             static_cast<unsigned long long>(m.tuples), m.busy_seconds,
             m.wall_seconds, m.tuples_per_sec());
      first_m = false;
    }
    out += "],\"switches\":[";
    bool first_s = true;
    for (const ModeSwitchRecord& sw : pp.mode_switches) {
      Append(out,
             "%s{\"target\":\"%s\",\"r0\":%.1f,\"remaining\":%llu,"
             "\"t_current_s\":%.6f,\"predicted_s\":%.6f,"
             "\"realized_s\":%.6f,\"error_pct\":%.1f}",
             first_s ? "" : ",", ExecModeName(sw.target), sw.r0,
             static_cast<unsigned long long>(sw.remaining_tuples),
             sw.t_current_seconds, sw.t_chosen_seconds,
             sw.realized_seconds, sw.error_pct());
      first_s = false;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ExplainAnalyze(const QueryRunResult& result) {
  if (result.profile == nullptr) {
    return "EXPLAIN ANALYZE unavailable: run with "
           "QueryRunOptions::collect_profile = true\n";
  }
  const QueryProfile& p = *result.profile;
  std::string out;
  Append(out, "EXPLAIN ANALYZE  %s  (query %u)%s\n", p.plan_name.c_str(),
         p.query_id, p.lossy ? "  [lossy: trace ring dropped events]" : "");
  Append(out,
         "  total %.3f ms = queue %.3f ms + service %.3f ms; exec %.3f ms; "
         "on-cpu %.3f ms\n",
         p.total_seconds * 1e3, p.queue_wait_seconds * 1e3,
         (p.total_seconds - p.queue_wait_seconds) * 1e3,
         p.exec_seconds * 1e3, p.on_cpu_seconds * 1e3);
  Append(out, "  compile %.3f ms this query (%llu jits, %llu cache hits)\n",
         p.compile_seconds * 1e3,
         static_cast<unsigned long long>(p.compiles),
         static_cast<unsigned long long>(p.cache_hits));
  Append(out, "  engine steps %.3f ms (finalize / merge / top-k)\n",
         p.engine_step_seconds * 1e3);
  Append(out, "  cpu-samples %llu; peak memory %llu bytes\n",
         static_cast<unsigned long long>(p.cpu_samples),
         static_cast<unsigned long long>(p.peak_memory_bytes));
  for (const PipelineReport& pp : p.pipelines) {
    Append(out,
           "  pipeline %u \"%s\": %.3f ms wall (%.3f ms exec-only), "
           "%llu tuples, %s -> %s%s\n",
           pp.pipeline_index, pp.name.c_str(), pp.exec_seconds * 1e3,
           pp.exec_only_seconds * 1e3,
           static_cast<unsigned long long>(pp.tuples),
           ExecModeName(pp.initial_mode), ExecModeName(pp.final_mode),
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
             ExecModeName(m.mode),
             static_cast<unsigned long long>(m.morsels),
             static_cast<unsigned long long>(m.tuples),
             m.busy_seconds * 1e3, m.wall_seconds * 1e3,
             m.tuples_per_sec() / 1e6);
    }
    for (const ModeSwitchRecord& sw : pp.mode_switches) {
      Append(out,
             "    switch -> %s: predicted %.3f ms (stay: %.3f ms), "
             "realized %.3f ms, error %+.1f%%  [r0=%.0f t/s, %llu tuples "
             "remained]\n",
             ExecModeName(sw.target), sw.t_chosen_seconds * 1e3,
             sw.t_current_seconds * 1e3, sw.realized_seconds * 1e3,
             sw.error_pct(), sw.r0,
             static_cast<unsigned long long>(sw.remaining_tuples));
    }
  }
  return out;
}

}  // namespace aqe
