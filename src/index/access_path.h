#ifndef AQE_INDEX_ACCESS_PATH_H_
#define AQE_INDEX_ACCESS_PATH_H_

#include <cstdint>
#include <memory>

#include "exec/morsel.h"
#include "plan/pipeline.h"

namespace aqe {

class Table;

/// Which index structure drove a scan's pruning (the most selective one
/// when several combined). Traced and shown in EXPLAIN ANALYZE.
enum class AccessPathKind : uint8_t {
  kFullScan,    ///< no pruning (no indexes, no usable conjunct, not selective)
  kZoneMap,     ///< block-granular min/max (+ presence) pruning only
  kDictRange,   ///< dictionary-code equality/range via the CSR index
  kDictBitmap,  ///< kBitmapTest set-membership via the CSR index
  kTextIndex,   ///< inverted token index posting intersection
};

const char* AccessPathKindName(AccessPathKind kind);

/// What the pruning analysis did and saved — per-pipeline observability.
struct PruningStats {
  bool analyzed = false;         ///< indexes existed and analysis ran
  uint64_t table_rows = 0;
  uint64_t selected_rows = 0;    ///< rows that will enter the morsel queue
  uint64_t zone_blocks_total = 0;
  uint64_t zone_blocks_pruned = 0;
  uint64_t candidate_rows = 0;   ///< row-granular index candidates (0 = none)
  uint64_t posting_entries = 0;  ///< posting-list entries read
  uint32_t domain_ranges = 0;    ///< physical ranges of the final domain
  AccessPathKind primary_path = AccessPathKind::kFullScan;
  double analysis_seconds = 0;

  /// Fraction of the table's rows that will be scheduled (1.0 = full scan).
  double selected_fraction() const {
    return table_rows > 0
               ? static_cast<double>(selected_rows) / table_rows
               : 1.0;
  }
};

/// Result of the access-path decision for one pipeline's scan: a ScanDomain
/// restricting which morsels are ever scheduled (null = full scan) plus the
/// stats above. The domain is a superset of the matching rows — every
/// predicate still runs on the scheduled rows, so results are identical to
/// a full scan by construction.
struct ScanPruning {
  std::shared_ptr<const ScanDomain> domain;
  PruningStats stats;
};

// Thresholds of the access-path decision rule (src/index/DESIGN.md §3).

/// Row-granular index candidates are adopted only when they cover at most
/// this fraction of the table; above it, gathering + sorting the row ids
/// costs more than letting the scan run with zone-map pruning alone. The
/// dictionary-code index lists row ids only for codes under the same bound
/// (dict_index.h), since no other code's rows are ever collected.
inline constexpr double kMaxCandidateFraction = 0.10;

/// The most row-granular candidates a scan over `rows` rows adopts.
inline uint64_t MaxCandidateRows(uint64_t rows) {
  return static_cast<uint64_t>(kMaxCandidateFraction *
                               static_cast<double>(rows));
}

/// Candidate rows closer than this merge into one scheduled range (the
/// rows in the gap are scanned and filtered by the residual predicate —
/// cheaper than per-range claim overhead for near-adjacent hits). Kept
/// small: a range claim costs one CAS + worker invocation (~tens of ns)
/// while every bridged gap row pays the full residual predicate, so
/// merging only wins across near-adjacent hits.
inline constexpr uint64_t kMergeGapRows = 16;

/// Keep the plain full scan unless at least this fraction of rows is
/// pruned — a domain with per-range bookkeeping must pay for itself.
inline constexpr double kMinPruneFraction = 0.05;

/// Evaluates `spec`'s filter conjuncts against `table.indexes()` and
/// decides the scan's access path. Only conjuncts over scan slots are
/// considered (computed slots and unrecognized shapes are ignored — they
/// stay residual, which is always sound). Returns a no-op full scan when
/// the table has no indexes.
ScanPruning AnalyzeScanPruning(const PipelineSpec& spec, const Table& table);

}  // namespace aqe

#endif  // AQE_INDEX_ACCESS_PATH_H_
