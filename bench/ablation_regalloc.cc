// §IV-C ablation: register-file sizes and translation times under the three
// register-allocation strategies (no-reuse / fixed-window / loop-aware) —
// the paper's 36 KB / 21 KB / 6 KB comparison on its largest query.
#include "bench/bench_util.h"
#include "queries/generated_queries.h"
#include "vm/register_allocator.h"

using namespace aqe;

namespace {

void Report(QueryEngine* engine, const Catalog& catalog,
            const std::string& label, QueryProgram (*build)(int, const Catalog&),
            int arg) {
  const RegAllocStrategy strategies[] = {
      RegAllocStrategy::kNoReuse, RegAllocStrategy::kWindow,
      RegAllocStrategy::kLoopAware};
  std::printf("%-10s", label.c_str());
  for (RegAllocStrategy strategy : strategies) {
    QueryProgram q = build(arg, catalog);
    TranslatorOptions options;
    options.strategy = strategy;
    auto costs = engine->MeasureCompileCosts(q, false, options);
    uint32_t bytes = 0;
    double ms = 0;
    for (const auto& c : costs) {
      bytes = std::max(bytes, c.register_file_bytes);
      ms += c.bytecode_millis;
    }
    std::printf(" %9u B %8.2f ms", bytes, ms);
  }
  std::printf("\n");
}

QueryProgram BuildTpch(int number, const Catalog& catalog) {
  return BuildTpchQuery(number, catalog);
}

}  // namespace

int main() {
  Catalog* catalog = bench::TpchAtScale(bench::EnvDouble("AQE_SF", 0.01));
  QueryEngine engine(catalog, 1);

  std::printf("Register allocation ablation (largest worker per query)\n");
  std::printf("%-10s %22s %22s %22s\n", "query", "no-reuse", "window",
              "loop-aware");
  for (int number : ImplementedTpchQueries()) {
    Report(&engine, *catalog, "q" + std::to_string(number), &BuildTpch,
           number);
  }
  for (int n : {200, 800}) {
    Report(&engine, *catalog, "gen" + std::to_string(n),
           &BuildGeneratedAggregateQuery, n);
  }
  std::printf("\nexpected shape: loop-aware several-fold below no-reuse "
              "(paper: 36KB -> 6KB on TPC-DS q55), window in between; "
              "translation time stays linear for all three\n");
  return 0;
}
