#include "index/access_path.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "index/table_index.h"
#include "storage/table.h"
#include "strings/string_predicate.h"

namespace aqe {

const char* AccessPathKindName(AccessPathKind kind) {
  switch (kind) {
    case AccessPathKind::kFullScan: return "full-scan";
    case AccessPathKind::kZoneMap: return "zone-map";
    case AccessPathKind::kDictRange: return "dict-range";
    case AccessPathKind::kDictBitmap: return "dict-bitmap";
    case AccessPathKind::kTextIndex: return "text-index";
  }
  return "?";
}

namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// Conjunctive bounds accumulated per scan slot.
struct SlotInterval {
  int64_t lo = kI64Min;
  int64_t hi = kI64Max;
  bool constrained = false;
  bool empty() const { return lo > hi; }
  void Tighten(int64_t new_lo, int64_t new_hi) {
    lo = std::max(lo, new_lo);
    hi = std::min(hi, new_hi);
    constrained = true;
  }
};

/// One row-granular candidate set derived from an index, with the path
/// that produced it (smallest set wins the "primary path" label).
struct CandidateSet {
  std::vector<uint32_t> rows;  ///< sorted ascending
  AccessPathKind path = AccessPathKind::kFullScan;
};

int MaxSlotUsed(const Expr& e) {
  int max_slot = e.kind == ExprKind::kSlot ? e.slot : -1;
  for (const ExprPtr& child : e.children) {
    max_slot = std::max(max_slot, MaxSlotUsed(*child));
  }
  return max_slot;
}

/// Flattens kAnd trees into a conjunct list.
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kAnd) {
    for (const ExprPtr& child : e.children) CollectConjuncts(*child, out);
  } else {
    out->push_back(&e);
  }
}

bool IsCompare(ExprKind kind) {
  switch (kind) {
    case ExprKind::kEq:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe:
      return true;
    default:
      return false;
  }
}

/// Applies `slot <op> value` to the slot's interval.
void ApplyCompare(ExprKind op, int64_t value, SlotInterval* interval) {
  switch (op) {
    case ExprKind::kEq: interval->Tighten(value, value); break;
    case ExprKind::kLt:
      interval->Tighten(kI64Min, value == kI64Min ? kI64Min : value - 1);
      break;
    case ExprKind::kLe: interval->Tighten(kI64Min, value); break;
    case ExprKind::kGt:
      interval->Tighten(value == kI64Max ? kI64Max : value + 1, kI64Max);
      break;
    case ExprKind::kGe: interval->Tighten(value, kI64Max); break;
    default: break;
  }
}

/// The mirrored operator of `value <op> slot`.
ExprKind MirrorCompare(ExprKind op) {
  switch (op) {
    case ExprKind::kLt: return ExprKind::kGt;
    case ExprKind::kLe: return ExprKind::kGe;
    case ExprKind::kGt: return ExprKind::kLt;
    case ExprKind::kGe: return ExprKind::kLe;
    default: return op;  // kEq is symmetric
  }
}

/// Builds block-aligned ranges from the keep bitmap (runs of kept blocks).
std::vector<MorselRange> RangesFromBlocks(const std::vector<char>& keep,
                                          uint32_t block_rows, uint64_t rows) {
  std::vector<MorselRange> ranges;
  for (uint64_t b = 0; b < keep.size();) {
    if (!keep[b]) { ++b; continue; }
    uint64_t e = b;
    while (e < keep.size() && keep[e]) ++e;
    ranges.push_back({b * block_rows, std::min(rows, e * block_rows)});
    b = e;
  }
  return ranges;
}

/// Merges sorted candidate rows into ranges, bridging gaps below the
/// threshold.
std::vector<MorselRange> RangesFromRows(const std::vector<uint32_t>& rows,
                                        uint64_t merge_gap) {
  std::vector<MorselRange> ranges;
  for (uint32_t r : rows) {
    if (!ranges.empty() && r < ranges.back().end + merge_gap) {
      ranges.back().end = static_cast<uint64_t>(r) + 1;
    } else {
      ranges.push_back({r, static_cast<uint64_t>(r) + 1});
    }
  }
  return ranges;
}

}  // namespace

ScanPruning AnalyzeScanPruning(const PipelineSpec& spec, const Table& table) {
  ScanPruning result;
  const TableIndexes* idx = table.indexes();
  result.stats.table_rows = table.num_rows();
  result.stats.selected_rows = table.num_rows();
  if (idx == nullptr) return result;
  const auto t0 = std::chrono::steady_clock::now();
  result.stats.analyzed = true;
  result.stats.zone_blocks_total = idx->zones.num_blocks();
  const uint64_t rows = table.num_rows();
  const int num_scan_slots = static_cast<int>(spec.scan_columns.size());

  // 1. Gather the usable conjuncts: every OpFilter in the chain, flattened
  // across kAnd, restricted to predicates over scan slots only. Ops never
  // *add* source rows a filter could resurrect, so a row failing any such
  // conjunct contributes nothing to the sink — pruning it is sound.
  std::vector<const Expr*> conjuncts;
  for (const PipelineOp& op : spec.ops) {
    if (const OpFilter* filter = std::get_if<OpFilter>(&op)) {
      CollectConjuncts(*filter->predicate, &conjuncts);
    }
  }

  std::vector<SlotInterval> intervals(static_cast<size_t>(num_scan_slots));
  struct BitmapPred { int slot; const uint8_t* bitmap; };
  struct TextPred { int slot; const LikePredicate* pred; };
  std::vector<BitmapPred> bitmap_preds;
  std::vector<TextPred> text_preds;
  for (const Expr* c : conjuncts) {
    if (MaxSlotUsed(*c) >= num_scan_slots) continue;
    if (IsCompare(c->kind)) {
      const Expr& lhs = *c->children[0];
      const Expr& rhs = *c->children[1];
      if (lhs.kind == ExprKind::kSlot && rhs.kind == ExprKind::kConstI64) {
        ApplyCompare(c->kind, rhs.i64_value,
                     &intervals[static_cast<size_t>(lhs.slot)]);
      } else if (lhs.kind == ExprKind::kConstI64 &&
                 rhs.kind == ExprKind::kSlot) {
        ApplyCompare(MirrorCompare(c->kind), lhs.i64_value,
                     &intervals[static_cast<size_t>(rhs.slot)]);
      }
    } else if (c->kind == ExprKind::kBitmapTest &&
               c->children[0]->kind == ExprKind::kSlot) {
      bitmap_preds.push_back({c->children[0]->slot, c->bitmap});
    } else if (c->kind == ExprKind::kLike &&
               c->children[0]->kind == ExprKind::kSlot &&
               c->like_pred != nullptr) {
      text_preds.push_back({c->children[0]->slot, c->like_pred});
    }
    // Everything else (kOr, kNot, arithmetic, computed slots) stays
    // residual-only.
  }

  auto finish = [&](std::shared_ptr<const ScanDomain> domain,
                    uint64_t selected) {
    result.stats.selected_rows = selected;
    result.stats.analysis_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (domain != nullptr) {
      result.stats.domain_ranges =
          static_cast<uint32_t>(domain->ranges.size());
    }
    result.domain = std::move(domain);
    return result;
  };

  // Contradictory bounds (e.g. equality with a code the dictionary doesn't
  // contain lowers to `slot == -1` on a non-negative code column... or any
  // empty interval): nothing can match.
  for (int s = 0; s < num_scan_slots; ++s) {
    SlotInterval& iv = intervals[static_cast<size_t>(s)];
    // Codes are non-negative: clamp dict-column intervals so an absent-code
    // equality (slot == -1) becomes visibly empty.
    if (iv.constrained && table.has_dictionary(spec.scan_columns[s])) {
      iv.lo = std::max<int64_t>(iv.lo, 0);
      iv.hi = std::min<int64_t>(
          iv.hi, table.dictionary(spec.scan_columns[s]).size() - 1);
    }
    if (iv.constrained && iv.empty()) {
      result.stats.primary_path = AccessPathKind::kZoneMap;
      result.stats.zone_blocks_pruned = result.stats.zone_blocks_total;
      return finish(ScanDomain::Make({}, rows), 0);
    }
  }

  // 2. Zone-map pass: block-granular keep bitmap from the interval bounds
  // plus the presence filter for point lookups on dictionary columns.
  const uint32_t block_rows = idx->zones.block_rows();
  std::vector<char> keep(idx->zones.num_blocks(), 1);
  bool zones_used = false;
  for (int s = 0; s < num_scan_slots; ++s) {
    const SlotInterval& iv = intervals[static_cast<size_t>(s)];
    if (!iv.constrained) continue;
    const ZoneMaps::ColumnZones* cz =
        idx->zones.ForColumn(spec.scan_columns[s]);
    if (cz == nullptr) continue;
    zones_used = true;
    const bool point = iv.lo == iv.hi && cz->has_presence;
    for (uint64_t b = 0; b < keep.size(); ++b) {
      if (!keep[b]) continue;
      if (iv.hi < cz->min[b] || iv.lo > cz->max[b]) {
        keep[b] = 0;
      } else if (point &&
                 !ZoneMaps::PresenceMayContain(
                     cz->presence.data() + b * ZoneMaps::kPresenceWords,
                     iv.lo)) {
        keep[b] = 0;
      }
    }
  }
  uint64_t blocks_kept = 0;
  for (char k : keep) blocks_kept += k;
  result.stats.zone_blocks_pruned = keep.size() - blocks_kept;

  // 3. Row-granular candidate sets from the CSR / token indexes. Each set
  // is a superset of the rows its predicate can match; the conjunction is
  // their intersection.
  std::vector<CandidateSet> sets;
  const uint64_t max_candidates = MaxCandidateRows(rows);
  auto dict_index_for = [&](int slot) -> const DictCodeIndex* {
    auto it = idx->dict_indexes.find(spec.scan_columns[slot]);
    return it == idx->dict_indexes.end() ? nullptr : &it->second;
  };
  // 3a. Narrow code ranges on dictionary columns (equality and LIKE-prefix
  // lowered to code-range compares).
  for (int s = 0; s < num_scan_slots; ++s) {
    const SlotInterval& iv = intervals[static_cast<size_t>(s)];
    if (!iv.constrained || (iv.lo == kI64Min && iv.hi == kI64Max)) continue;
    const DictCodeIndex* csr = dict_index_for(s);
    if (csr == nullptr) continue;
    const int64_t hi = iv.hi == kI64Max ? csr->num_codes() : iv.hi + 1;
    if (csr->CountForCodeRange(iv.lo, hi) > max_candidates) continue;
    CandidateSet set;
    set.path = AccessPathKind::kDictRange;
    csr->CollectRows(iv.lo, hi, &set.rows);
    std::sort(set.rows.begin(), set.rows.end());
    sets.push_back(std::move(set));
  }
  // 3b. Bitmap membership (pre-evaluated LIKE / IN bitmaps).
  for (const BitmapPred& bp : bitmap_preds) {
    const DictCodeIndex* csr = dict_index_for(bp.slot);
    if (csr == nullptr) continue;
    const int32_t codes = csr->num_codes();
    uint64_t count = 0;
    for (int32_t c = 0; c < codes; ++c) {
      if (bp.bitmap[c]) count += csr->CountForCodeRange(c, c + 1);
    }
    if (count > max_candidates) continue;
    CandidateSet set;
    set.path = AccessPathKind::kDictBitmap;
    set.rows.reserve(count);
    for (int32_t c = 0; c < codes; ++c) {
      if (bp.bitmap[c]) csr->CollectRows(c, c + 1, &set.rows);
    }
    std::sort(set.rows.begin(), set.rows.end());
    sets.push_back(std::move(set));
  }
  // 3c. Inverted token index for LIKE runtime-call predicates.
  for (const TextPred& tp : text_preds) {
    auto it = idx->text_indexes.find(spec.scan_columns[tp.slot]);
    const DictCodeIndex* csr = dict_index_for(tp.slot);
    if (it == idx->text_indexes.end() || csr == nullptr) continue;
    std::vector<int32_t> codes;
    if (!it->second.CandidateCodes(tp.pred->matcher.pattern(), &codes,
                                   &result.stats.posting_entries)) {
      continue;
    }
    uint64_t count = 0;
    for (int32_t c : codes) count += csr->CountForCodeRange(c, c + 1);
    if (count > max_candidates) continue;
    CandidateSet set;
    set.path = AccessPathKind::kTextIndex;
    set.rows.reserve(count);
    for (int32_t c : codes) csr->CollectRows(c, c + 1, &set.rows);
    std::sort(set.rows.begin(), set.rows.end());
    sets.push_back(std::move(set));
  }

  // 4. Combine: intersect the candidate sets, drop candidates in
  // zone-pruned blocks, merge into ranges. Without candidate sets the kept
  // blocks are the domain.
  std::vector<MorselRange> ranges;
  if (!sets.empty()) {
    size_t primary = 0;
    for (size_t i = 1; i < sets.size(); ++i) {
      if (sets[i].rows.size() < sets[primary].rows.size()) primary = i;
    }
    result.stats.primary_path = sets[primary].path;
    std::vector<uint32_t> candidates = std::move(sets[0].rows);
    std::vector<uint32_t> merged;
    for (size_t i = 1; i < sets.size(); ++i) {
      merged.clear();
      std::set_intersection(candidates.begin(), candidates.end(),
                            sets[i].rows.begin(), sets[i].rows.end(),
                            std::back_inserter(merged));
      candidates.swap(merged);
    }
    if (result.stats.zone_blocks_pruned > 0) {
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&](uint32_t r) {
                                        return !keep[r / block_rows];
                                      }),
                       candidates.end());
    }
    result.stats.candidate_rows = candidates.size();
    ranges = RangesFromRows(candidates, kMergeGapRows);
  } else if (zones_used && result.stats.zone_blocks_pruned > 0) {
    result.stats.primary_path = AccessPathKind::kZoneMap;
    ranges = RangesFromBlocks(keep, block_rows, rows);
  } else {
    return finish(nullptr, rows);  // nothing to prune with
  }

  std::shared_ptr<const ScanDomain> domain = ScanDomain::Make(ranges, rows);
  const uint64_t selected = domain->selected();
  if (static_cast<double>(rows - selected) <
      kMinPruneFraction * static_cast<double>(rows)) {
    // Not selective enough to pay the per-range overhead: keep the dense
    // scan (stats still report what the analysis found).
    result.stats.primary_path = AccessPathKind::kFullScan;
    return finish(nullptr, rows);
  }
  return finish(std::move(domain), selected);
}

}  // namespace aqe
