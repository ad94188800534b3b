#include "index/dict_index.h"

#include <algorithm>

#include "common/status.h"
#include "storage/column.h"

namespace aqe {

DictCodeIndex DictCodeIndex::Build(const Column& column, int32_t num_codes) {
  AQE_CHECK(column.type() == DataType::kI32 && num_codes >= 0);
  DictCodeIndex index;
  const uint64_t rows = column.size();
  AQE_CHECK(rows <= UINT32_MAX);
  const size_t n = static_cast<size_t>(num_codes);
  // Counting sort: one pass for per-code counts, one to place row ids —
  // rows are visited in order, so ids come out ascending within each code.
  index.offsets_.assign(n + 1, 0);
  const int32_t* codes = static_cast<const int32_t*>(column.data());
  for (uint64_t r = 0; r < rows; ++r) {
    const int32_t code = codes[r];
    AQE_CHECK(code >= 0 && code < num_codes);
    ++index.offsets_[static_cast<size_t>(code) + 1];
  }
  for (size_t c = 1; c <= n; ++c) index.offsets_[c] += index.offsets_[c - 1];
  index.row_ids_.resize(rows);
  PageVector<uint64_t> cursor(index.offsets_.begin(), index.offsets_.end() - 1);
  for (uint64_t r = 0; r < rows; ++r) {
    index.row_ids_[cursor[static_cast<size_t>(codes[r])]++] =
        static_cast<uint32_t>(r);
  }
  return index;
}

uint64_t DictCodeIndex::CountForCodeRange(int64_t lo, int64_t hi) const {
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, num_codes());
  if (lo >= hi) return 0;
  return offsets_[static_cast<size_t>(hi)] - offsets_[static_cast<size_t>(lo)];
}

void DictCodeIndex::CollectRows(int64_t lo, int64_t hi,
                                std::vector<uint32_t>* out) const {
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, num_codes());
  if (lo >= hi) return;
  out->insert(out->end(), row_ids_.begin() + offsets_[static_cast<size_t>(lo)],
              row_ids_.begin() + offsets_[static_cast<size_t>(hi)]);
}

const uint32_t* DictCodeIndex::RowsBegin(int32_t code) const {
  if (code < 0 || code >= num_codes()) return row_ids_.data();
  return row_ids_.data() + offsets_[static_cast<size_t>(code)];
}

const uint32_t* DictCodeIndex::RowsEnd(int32_t code) const {
  if (code < 0 || code >= num_codes()) return row_ids_.data();
  return row_ids_.data() + offsets_[static_cast<size_t>(code) + 1];
}

}  // namespace aqe
