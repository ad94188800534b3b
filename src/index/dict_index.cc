#include "index/dict_index.h"

#include <algorithm>

#include "common/status.h"
#include "index/access_path.h"
#include "storage/column.h"

namespace aqe {

DictCodeIndex DictCodeIndex::Build(const Column& column, int32_t num_codes) {
  AQE_CHECK(num_codes >= 0);
  DictCodeIndex index;
  const uint64_t rows = column.size();
  AQE_CHECK(rows <= UINT32_MAX);
  const size_t n = static_cast<size_t>(num_codes);
  VisitIntColumn(column, [&](const auto* codes) {
    // Counting sort: one pass for per-code counts, one to place the listed
    // codes' row ids — rows are visited in order, so ids come out ascending
    // within each code.
    index.counts_.assign(n + 1, 0);
    for (uint64_t r = 0; r < rows; ++r) {
      const int64_t code = codes[r];
      AQE_CHECK(code >= 0 && code < num_codes);
      ++index.counts_[static_cast<size_t>(code) + 1];
    }
    const uint64_t max_listed = MaxCandidateRows(rows);
    index.listed_.assign(n + 1, 0);
    for (size_t c = 1; c <= n; ++c) {
      const uint32_t count = index.counts_[c];
      index.listed_[c] =
          index.listed_[c - 1] + (count <= max_listed ? count : 0);
      index.counts_[c] += index.counts_[c - 1];
    }
    index.row_ids_.resize(index.listed_[n]);
    if (index.row_ids_.empty()) return;
    PageVector<uint32_t> cursor(index.listed_.begin(), index.listed_.end() - 1);
    for (uint64_t r = 0; r < rows; ++r) {
      const size_t code = static_cast<size_t>(codes[r]);
      // A code present in the column is listed iff its listed span is
      // non-empty.
      if (index.listed_[code + 1] != index.listed_[code]) {
        index.row_ids_[cursor[code]++] = static_cast<uint32_t>(r);
      }
    }
  });
  if (index.listed_rows() == rows) index.listed_ = PageVector<uint32_t>();
  return index;
}

bool DictCodeIndex::Clamp(int64_t* lo, int64_t* hi) const {
  *lo = std::max<int64_t>(*lo, 0);
  *hi = std::min<int64_t>(*hi, num_codes());
  return *lo < *hi;
}

uint64_t DictCodeIndex::CountForCodeRange(int64_t lo, int64_t hi) const {
  if (!Clamp(&lo, &hi)) return 0;
  return counts_[static_cast<size_t>(hi)] - counts_[static_cast<size_t>(lo)];
}

bool DictCodeIndex::Listed(int64_t lo, int64_t hi) const {
  if (!Clamp(&lo, &hi)) return true;
  const auto l = static_cast<size_t>(lo);
  const auto h = static_cast<size_t>(hi);
  return listed()[h] - listed()[l] == counts_[h] - counts_[l];
}

void DictCodeIndex::CollectRows(int64_t lo, int64_t hi,
                                std::vector<uint32_t>* out) const {
  AQE_CHECK_MSG(Listed(lo, hi), "collecting rows of an unlisted code");
  if (!Clamp(&lo, &hi)) return;
  out->insert(out->end(), row_ids_.begin() + listed()[static_cast<size_t>(lo)],
              row_ids_.begin() + listed()[static_cast<size_t>(hi)]);
}

}  // namespace aqe
