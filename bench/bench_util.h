#ifndef AQE_BENCH_BENCH_UTIL_H_
#define AQE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "queries/tpch_queries.h"
#include "tpch/tpch_gen.h"

namespace aqe::bench {

/// Environment knobs shared by the harnesses. Defaults are scaled so the
/// full bench suite completes in minutes while preserving the paper's
/// shapes.
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}
inline std::vector<double> EnvDoubleList(const char* name,
                                         const std::string& fallback) {
  const char* v = std::getenv(name);
  std::string s = v == nullptr ? fallback : v;
  std::vector<double> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

inline double GeometricMean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Nearest-rank percentile, p in [0, 1]: the sorted value at index
/// floor(p * (n - 1)); 0 for no values. benchsuite/aqe_bench.cc keeps an
/// identical copy so its numbers stay comparable.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(p * static_cast<double>(values.size() - 1))];
}

/// Builds (once) and caches a TPC-H database per scale factor.
inline Catalog* TpchAtScale(double sf) {
  static std::vector<std::pair<double, Catalog*>> cache;
  for (auto& [cached_sf, catalog] : cache) {
    if (cached_sf == sf) return catalog;
  }
  std::fprintf(stderr, "[bench] generating TPC-H data at SF %.3g...\n", sf);
  auto* catalog = new Catalog();
  tpch::BuildTpchDatabase(catalog, sf);
  cache.emplace_back(sf, catalog);
  return catalog;
}

}  // namespace aqe::bench

#endif  // AQE_BENCH_BENCH_UTIL_H_
