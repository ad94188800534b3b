#include "tpch/tpch_gen.h"

#include <array>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fork_join.h"
#include "common/page_allocator.h"
#include "common/random.h"
#include "common/status.h"
#include "index/table_index.h"
#include "tpch/tpch_schema.h"

namespace aqe::tpch {
namespace {

constexpr const char* kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                         "MIDDLE EAST"};

// Nation -> region mapping per the TPC-H spec.
struct NationSpec {
  const char* name;
  int region;
};
constexpr NationSpec kNations[25] = {
    {"ALGERIA", 0},        {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},         {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},         {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2},      {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},          {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},        {"MOZAMBIQUE", 0},{"PERU", 1},
    {"CHINA", 2},          {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},        {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

constexpr const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                      "MACHINERY", "HOUSEHOLD"};
constexpr const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                        "4-NOT SPECIFIED", "5-LOW"};
constexpr const char* kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                       "TRUCK",   "MAIL", "FOB"};
constexpr const char* kInstructions[4] = {"DELIVER IN PERSON", "COLLECT COD",
                                          "NONE", "TAKE BACK RETURN"};
constexpr const char* kTypeSyllable1[6] = {"STANDARD", "SMALL",  "MEDIUM",
                                           "LARGE",    "ECONOMY", "PROMO"};
constexpr const char* kTypeSyllable2[5] = {"ANODIZED", "BURNISHED", "PLATED",
                                           "POLISHED", "BRUSHED"};
constexpr const char* kTypeSyllable3[5] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                           "COPPER"};
constexpr const char* kContainerSyllable1[5] = {"SM", "LG", "MED", "JUMBO",
                                                "WRAP"};
constexpr const char* kContainerSyllable2[8] = {"CASE", "BOX", "BAG", "JAR",
                                                "PKG", "PACK", "CAN", "DRUM"};
constexpr std::string_view kCommentWords[16] = {
    "carefully", "quickly",  "furiously", "ironic",      "final",
    "pending",   "bold",     "regular",   "express",     "deposits",
    "accounts",  "packages", "theodolites", "foxes",     "ideas",
    "platelets"};

/// Loads `values`, a whole vocabulary in any order, into the empty `dict`
/// and returns each value's code, index for index, so a row writes its
/// final code by vocabulary index.
template <typename Values = std::initializer_list<std::string_view>>
PageVector<int32_t> LoadVocabulary(Dictionary* dict, const Values& values) {
  PageVector<char> bytes;
  PageVector<uint64_t> ends;
  for (const std::string_view value : values) {
    bytes.insert(bytes.end(), value.begin(), value.end());
    ends.push_back(bytes.size());
  }
  return dict->BulkLoad(bytes, ends);
}

void GenRegionNation(Catalog* catalog) {
  Table* region = catalog->GetTable("region");
  const PageVector<int32_t> region_code =
      LoadVocabulary(&region->dictionary(1), kRegionNames);
  for (int i = 0; i < 5; ++i) {
    region->column(0).AppendInt(i);
    region->column(1).AppendInt(region_code[i]);
  }
  Table* nation = catalog->GetTable("nation");
  std::array<std::string_view, 25> nation_names;
  for (int i = 0; i < 25; ++i) nation_names[i] = kNations[i].name;
  const PageVector<int32_t> nation_code =
      LoadVocabulary(&nation->dictionary(1), nation_names);
  for (int i = 0; i < 25; ++i) {
    nation->column(0).AppendInt(i);
    nation->column(1).AppendInt(nation_code[i]);
    nation->column(2).AppendInt(kNations[i].region);
  }
}

void GenSupplier(Catalog* catalog, uint64_t count, Random* rng) {
  Table* t = catalog->GetTable("supplier");
  Column& suppkey = t->column("s_suppkey");
  Column& nationkey = t->column("s_nationkey");
  Column& acctbal = t->column("s_acctbal");
  for (uint64_t i = 0; i < count; ++i) {
    suppkey.AppendInt(static_cast<int64_t>(i) + 1);
    nationkey.AppendInt(static_cast<int32_t>(rng->NextBelow(25)));
    // -999.99..9999.99
    acctbal.AppendInt(rng->NextRange(-99999, 999999));
  }
}

void GenCustomer(Catalog* catalog, uint64_t count, Random* rng) {
  Table* t = catalog->GetTable("customer");
  Column& custkey = t->column("c_custkey");
  Column& name = t->column("c_name");
  Column& nationkey = t->column("c_nationkey");
  Column& mktsegment = t->column("c_mktsegment");
  Dictionary& name_dict = t->dictionary(t->ColumnIndex("c_name"));
  const PageVector<int32_t> seg_code = LoadVocabulary(
      &t->dictionary(t->ColumnIndex("c_mktsegment")), kSegments);
  char buf[32];
  for (uint64_t i = 0; i < count; ++i) {
    custkey.AppendInt(static_cast<int64_t>(i) + 1);
    std::snprintf(buf, sizeof(buf), "Customer#%09llu",
                  static_cast<unsigned long long>(i + 1));
    name.AppendInt(name_dict.GetOrAdd(buf));
    nationkey.AppendInt(static_cast<int32_t>(rng->NextBelow(25)));
    mktsegment.AppendInt(seg_code[rng->NextBelow(5)]);
  }
}

void GenPart(Catalog* catalog, uint64_t count, Random* rng) {
  Table* t = catalog->GetTable("part");
  Column& partkey = t->column("p_partkey");
  Column& brand = t->column("p_brand");
  Column& type = t->column("p_type");
  Column& size = t->column("p_size");
  Column& container = t->column("p_container");
  Column& retail = t->column("p_retailprice");
  // Each vocabulary enumerated whole, its first part outermost, so value
  // (a, b, c) has index (a * B + b) * C + c.
  std::vector<std::string> brands, types, containers;
  for (char m = '1'; m <= '5'; ++m) {
    for (char n = '1'; n <= '5'; ++n) {
      brands.push_back(std::string("Brand#") + m + n);
    }
  }
  for (const char* s1 : kTypeSyllable1) {
    for (const char* s2 : kTypeSyllable2) {
      for (const char* s3 : kTypeSyllable3) {
        types.push_back(std::string(s1) + " " + s2 + " " + s3);
      }
    }
  }
  for (const char* s1 : kContainerSyllable1) {
    for (const char* s2 : kContainerSyllable2) {
      containers.push_back(std::string(s1) + " " + s2);
    }
  }
  const PageVector<int32_t> brand_code =
      LoadVocabulary(&t->dictionary(t->ColumnIndex("p_brand")), brands);
  const PageVector<int32_t> type_code =
      LoadVocabulary(&t->dictionary(t->ColumnIndex("p_type")), types);
  const PageVector<int32_t> container_code = LoadVocabulary(
      &t->dictionary(t->ColumnIndex("p_container")), containers);
  for (uint64_t i = 0; i < count; ++i) {
    partkey.AppendInt(static_cast<int64_t>(i) + 1);
    // The catalog pins fix this draw order: each value's parts are drawn
    // last part first.
    const uint64_t brand_n = rng->NextBelow(5);
    const uint64_t brand_m = rng->NextBelow(5);
    brand.AppendInt(brand_code[brand_m * 5 + brand_n]);
    const uint64_t type3 = rng->NextBelow(5);
    const uint64_t type2 = rng->NextBelow(5);
    const uint64_t type1 = rng->NextBelow(6);
    type.AppendInt(type_code[(type1 * 5 + type2) * 5 + type3]);
    size.AppendInt(static_cast<int32_t>(rng->NextBelow(50)) + 1);
    const uint64_t container2 = rng->NextBelow(8);
    const uint64_t container1 = rng->NextBelow(5);
    container.AppendInt(container_code[container1 * 8 + container2]);
    // p_retailprice per spec: 90000 + (partkey/10 mod 20001) + 100*(partkey mod 1000), /100.
    int64_t pk = static_cast<int64_t>(i) + 1;
    retail.AppendInt(90000 + (pk / 10) % 20001 + 100 * (pk % 1000));
  }
}

void GenPartsupp(Catalog* catalog, uint64_t part_count, uint64_t supp_count,
                 Random* rng) {
  Table* t = catalog->GetTable("partsupp");
  Column& ps_partkey = t->column("ps_partkey");
  Column& ps_suppkey = t->column("ps_suppkey");
  Column& ps_availqty = t->column("ps_availqty");
  Column& ps_supplycost = t->column("ps_supplycost");
  for (uint64_t p = 1; p <= part_count; ++p) {
    for (int s = 0; s < 4; ++s) {
      ps_partkey.AppendInt(static_cast<int64_t>(p));
      // Spec formula spreads the 4 suppliers of a part across the range.
      uint64_t sk = (p + s * (supp_count / 4 + (p - 1) / supp_count)) %
                        supp_count + 1;
      ps_suppkey.AppendInt(static_cast<int64_t>(sk));
      ps_availqty.AppendInt(static_cast<int32_t>(rng->NextBelow(9999)) + 1);
      // 1.00..1000.00
      ps_supplycost.AppendInt(rng->NextRange(100, 100000));
    }
  }
}

/// One order's values in the orders table's schema order, o_comment
/// aside, and one of its lines' values in the lineitem table's.
using OrdersRow = std::array<int64_t, 7>;
using LineitemRow = std::array<int64_t, 15>;

/// The orders and their lines, drawn from the main stream one order at a
/// time. The same draws feed both passes over them: a replay that only
/// counts lines, then the writes.
class OrderGenerator {
 public:
  OrderGenerator(Catalog* catalog, const Cardinalities& card)
      : cust_count_(card.customer),
        part_count_(card.part),
        supp_count_(card.supplier) {
    Table* ot = catalog->GetTable("orders");
    Table* lt = catalog->GetTable("lineitem");
    Dictionary& status_dict = ot->dictionary(ot->ColumnIndex("o_orderstatus"));
    Dictionary& prio_dict = ot->dictionary(ot->ColumnIndex("o_orderpriority"));
    Dictionary& rf_dict = lt->dictionary(lt->ColumnIndex("l_returnflag"));
    Dictionary& ls_dict = lt->dictionary(lt->ColumnIndex("l_linestatus"));
    Dictionary& si_dict = lt->dictionary(lt->ColumnIndex("l_shipinstruct"));
    Dictionary& sm_dict = lt->dictionary(lt->ColumnIndex("l_shipmode"));
    // Every vocabulary is registered whole, so codes do not depend on the
    // scale factor, and each code is resolved once, not per row.
    const PageVector<int32_t> status =
        LoadVocabulary(&status_dict, {"F", "O", "P"});
    status_f_ = status[0];
    status_o_ = status[1];
    status_p_ = status[2];
    const PageVector<int32_t> flag = LoadVocabulary(&rf_dict, {"R", "A", "N"});
    flag_r_ = flag[0];
    flag_a_ = flag[1];
    flag_n_ = flag[2];
    const PageVector<int32_t> line = LoadVocabulary(&ls_dict, {"O", "F"});
    line_o_ = line[0];
    line_f_ = line[1];
    prio_code_ = LoadVocabulary(&prio_dict, kPriorities);
    si_code_ = LoadVocabulary(&si_dict, kInstructions);
    sm_code_ = LoadVocabulary(&sm_dict, kShipModes);
  }

  /// Draws order `o` from `rng` and hands its lines, then the order, to
  /// `sink`'s Line(const LineitemRow&) and Order(const OrdersRow&).
  template <typename Sink>
  void Generate(uint64_t o, Random* rng, Sink* sink) const {
    // Sparse order keys like the spec (gaps of 8 every 32 keys).
    const auto okey = static_cast<int64_t>((o / 8) * 32 + o % 8 + 1);
    const int32_t odate = static_cast<int32_t>(
        kStartDate + rng->NextBelow(static_cast<uint64_t>(
                         kEndDate - kStartDate - 151)));
    const int lines = static_cast<int>(rng->NextBelow(7)) + 1;
    int64_t total = 0;
    int f_lines = 0;
    for (int ln = 0; ln < lines; ++ln) {
      const int64_t pk = static_cast<int64_t>(rng->NextBelow(part_count_)) + 1;
      const int64_t sk = static_cast<int64_t>(rng->NextBelow(supp_count_)) + 1;
      const int64_t qty_units = static_cast<int64_t>(rng->NextBelow(50)) + 1;
      // The part's retail price, re-derived (cheaper than a column lookup).
      const int64_t eprice =
          qty_units * (90000 + (pk / 10) % 20001 + 100 * (pk % 1000));
      const int64_t discount = rng->NextRange(0, 10);  // 0.00 .. 0.10
      const int64_t tax = rng->NextRange(0, 8);        // 0.00 .. 0.08
      const int32_t sdate =
          odate + static_cast<int32_t>(rng->NextBelow(121)) + 1;
      const int32_t cdate =
          odate + static_cast<int32_t>(rng->NextBelow(61)) + 30;
      const int32_t rdate =
          sdate + static_cast<int32_t>(rng->NextBelow(30)) + 1;
      const bool shipped = rdate <= kCurrentDate;
      const int32_t rflag =
          shipped ? (rng->NextBool(0.5) ? flag_r_ : flag_a_) : flag_n_;
      const bool open = sdate > kCurrentDate;
      if (!open) ++f_lines;
      const int32_t instruct = si_code_[rng->NextBelow(4)];
      const int32_t mode = sm_code_[rng->NextBelow(7)];
      sink->Line(LineitemRow{okey, pk, sk, ln + 1, qty_units * 100, eprice,
                             discount, tax, rflag, open ? line_o_ : line_f_,
                             sdate, cdate, rdate, instruct, mode});
      total += eprice;
    }
    const int32_t ostatus =
        f_lines == lines ? status_f_ : (f_lines == 0 ? status_o_ : status_p_);
    const int64_t custkey =
        static_cast<int64_t>(rng->NextBelow(cust_count_)) + 1;
    const int32_t priority = prio_code_[rng->NextBelow(5)];
    sink->Order(OrdersRow{okey, custkey, ostatus, total, odate, priority, 0});
  }

 private:
  static inline const int32_t kStartDate = DateToDays(1992, 1, 1);
  static inline const int32_t kEndDate = DateToDays(1998, 8, 2);
  // The "current date" used by the spec: lines shipped after it are still 'O'.
  static inline const int32_t kCurrentDate = DateToDays(1995, 6, 17);

  uint64_t cust_count_, part_count_, supp_count_;
  int32_t status_f_, status_o_, status_p_;
  int32_t flag_r_, flag_a_, flag_n_, line_o_, line_f_;
  PageVector<int32_t> prio_code_, si_code_, sm_code_;
};

/// The replay's sink: counts the lines on from the given row.
struct LineCounter {
  uint64_t lines = 0;
  void Line(const LineitemRow&) { ++lines; }
  void Order(const OrdersRow&) {}
};

/// Rows bound for kColumns consecutive integer columns of one table,
/// buffered a column batch at a time on the writer's stack: a generator
/// helper may take no large buffer from malloc (see src/obs/DESIGN.md).
/// A value costs one store to the buffer. Each flush stores a column's
/// rows with one SetInts, which checks every row and width before it
/// stores any, with one width dispatch per column per batch.
template <size_t kColumns>
class ColumnBatch {
 public:
  /// Writes rows from `first_row` on into columns [first_column,
  /// first_column + kColumns) of `table`.
  ColumnBatch(Table* table, int first_column, uint64_t first_row)
      : table_(table), first_column_(first_column), first_row_(first_row) {}

  void Add(const std::array<int64_t, kColumns>& row) {
    for (size_t c = 0; c < kColumns; ++c) values_[c][rows_] = row[c];
    if (++rows_ == kBatchRows) Flush();
  }

  /// Stores the buffered rows. A writer calls it once more at its end.
  void Flush() {
    for (size_t c = 0; c < kColumns; ++c) {
      table_->column(first_column_ + static_cast<int>(c))
          .SetInts(first_row_, values_[c], rows_);
    }
    first_row_ += rows_;
    rows_ = 0;
  }

 private:
  static constexpr size_t kBatchRows = 256;

  Table* table_;
  int first_column_;
  uint64_t first_row_;
  size_t rows_ = 0;
  int64_t values_[kColumns][kBatchRows];
};

/// The writers' sink: one range's writer, which batches its orders and
/// lines from the given rows on into the sized orders and lineitem
/// columns: 44 KiB of buffers on the range task's stack.
class RowWriter {
 public:
  RowWriter(Table* orders, Table* lineitem, uint64_t order_row,
            uint64_t line_row)
      : orders_(orders, 0, order_row), lines_(lineitem, 0, line_row) {}

  void Line(const LineitemRow& values) { lines_.Add(values); }
  void Order(const OrdersRow& values) { orders_.Add(values); }
  void Flush() {
    orders_.Flush();
    lines_.Flush();
  }

 private:
  ColumnBatch<std::tuple_size_v<OrdersRow>> orders_;
  ColumnBatch<std::tuple_size_v<LineitemRow>> lines_;
};

/// The orders in one range of a replay split, which one task writes. Small
/// enough that SF 0.01's 15,000 orders reach every core, and fixed, so the
/// boundaries do not depend on the host.
constexpr uint64_t kOrdersPerRange = 1024;

/// Writes orders [0, count) of one generator stream in parallel ranges of
/// kOrdersPerRange. `replay(o, rng, position)` draws order o from `rng` and
/// returns the output position (a row, a byte offset) after it, writing
/// nothing. A replay on this thread draws every order in turn and records
/// the stream's state and the position at the start of each range;
/// `size(end)` then sizes the output on this thread, and each range is one
/// `write(first, end, rng, position)` call, which draws orders [first,
/// end) from the range's recorded state and writes them from its recorded
/// position on, so a range keeps one writer. Every range starts where one
/// pass writing every order in turn would be, so the values do not depend
/// on the range size.
template <typename Replay, typename Size, typename Write>
void ReplaySplit(uint64_t count, Random* rng, const Replay& replay,
                 const Size& size, const Write& write) {
  struct RangeStart {
    Random rng;
    uint64_t position;
  };
  // Page-mapped: the comment task runs on a helper (see GenerateTpchData).
  PageVector<RangeStart> starts;
  uint64_t position = 0;
  for (uint64_t o = 0; o < count; ++o) {
    if (o % kOrdersPerRange == 0) starts.push_back({*rng, position});
    position = replay(o, rng, position);
  }
  size(position);
  ForkJoin(starts.size(), [&](size_t r) {
    Random range_rng = starts[r].rng;
    const uint64_t first = r * kOrdersPerRange;
    write(first, std::min(count, first + kOrdersPerRange), &range_rng,
          starts[r].position);
  });
}

/// Generates orders and lineitem, split by replay: the replay counts each
/// order's lines, this thread sizes every column, so they stay on its malloc
/// (see src/obs/DESIGN.md), and the ranges write their disjoint rows.
void GenOrdersAndLineitem(Catalog* catalog, const Cardinalities& card,
                          Random* rng) {
  Table* orders = catalog->GetTable("orders");
  Table* lineitem = catalog->GetTable("lineitem");
  // The rows are written by column position: o_comment is last.
  AQE_CHECK(orders->ColumnIndex("o_comment") == std::tuple_size_v<OrdersRow> &&
            lineitem->num_columns() == std::tuple_size_v<LineitemRow>);
  const OrderGenerator generator(catalog, card);
  ReplaySplit(
      card.orders, rng,
      [&](uint64_t o, Random* order_rng, uint64_t line_row) {
        LineCounter counter{line_row};
        generator.Generate(o, order_rng, &counter);
        return counter.lines;
      },
      [&](uint64_t lines) {
        for (size_t c = 0; c < std::tuple_size_v<OrdersRow>; ++c) {
          orders->column(static_cast<int>(c)).Resize(card.orders);
        }
        for (int c = 0; c < lineitem->num_columns(); ++c) {
          lineitem->column(c).Resize(lines);
        }
      },
      [&](uint64_t first, uint64_t end, Random* range_rng,
          uint64_t line_row) {
        RowWriter writer(orders, lineitem, first, line_row);
        for (uint64_t o = first; o < end; ++o) {
          generator.Generate(o, range_rng, &writer);
        }
        writer.Flush();
      });
}

/// One order's comment: 4..8 vocabulary words joined by single spaces.
class Comment {
 public:
  /// Draws the next comment from `rng`. ~2% of comments embed
  /// "special ... requests" in order, the Q13 predicate's target.
  explicit Comment(Random* rng) {
    count_ = 4 + static_cast<int>(rng->NextBelow(5));
    const bool special = rng->NextBool(0.02);
    const int special_at =
        special ? static_cast<int>(rng->NextBelow(
                      static_cast<uint64_t>(count_ - 1)))
                : -1;
    for (int wi = 0; wi < count_; ++wi) {
      if (wi == special_at) {
        words_[wi] = "special";
      } else if (special && wi == special_at + 1) {
        words_[wi] = "requests";
      } else {
        words_[wi] = kCommentWords[rng->NextBelow(16)];
      }
    }
  }

  size_t size() const {
    size_t bytes = static_cast<size_t>(count_ - 1);
    for (int wi = 0; wi < count_; ++wi) bytes += words_[wi].size();
    return bytes;
  }

  /// Writes the size() bytes of the comment to `out`.
  void CopyTo(char* out) const {
    for (int wi = 0; wi < count_; ++wi) {
      if (wi > 0) *out++ = ' ';
      out = std::copy(words_[wi].begin(), words_[wi].end(), out);
    }
  }

 private:
  std::array<std::string_view, 8> words_;
  int count_;
};

/// Fills o_comment, sized by the caller. Nearly all comments are distinct,
/// making this the engine's high-cardinality dictionary column. Split by
/// replay like the orders: the replay sizes every comment, the ranges write
/// the comments back to back into one buffer, and the dictionary is
/// bulk-loaded from it, sorted, so the column is written once with its
/// final codes. The comments draw from their own deterministic stream so
/// the text column does not perturb the long-standing key/date/price
/// distributions (and the query results derived from them), and so they
/// can be generated beside the main stream: only this column and its
/// dictionary are touched.
void GenOrderComments(Table* orders, uint64_t order_count) {
  Random rng(0x5EA7C0DEu);
  PageVector<uint64_t> ends(order_count);  // a helper's: see GenerateTpchData
  PageVector<char> bytes;
  ReplaySplit(
      order_count, &rng,
      [&](uint64_t o, Random* order_rng, uint64_t end) {
        return ends[o] = end + Comment(order_rng).size();
      },
      [&](uint64_t end) { bytes.resize(end); },
      [&](uint64_t first, uint64_t end, Random* range_rng, uint64_t offset) {
        for (uint64_t o = first; o < end; ++o) {
          Comment(range_rng).CopyTo(bytes.data() + offset);
          offset = ends[o];
        }
      });
  const int column = orders->ColumnIndex("o_comment");
  const PageVector<int32_t> codes =
      orders->dictionary(column).BulkLoad(bytes, ends);
  ColumnBatch<1> o_comment(orders, column, 0);
  for (uint64_t o = 0; o < order_count; ++o) o_comment.Add({codes[o]});
  o_comment.Flush();
}

}  // namespace

void GenerateTpchData(Catalog* catalog, double sf, uint64_t seed) {
  const Cardinalities card = CardinalitiesForScale(sf);
  Table* orders = catalog->GetTable("orders");
  // Task 0, the main stream, stays on this thread: it sizes every other
  // column on malloc, and the catalog keeps them; its helpers only write
  // into them. The comment task runs on a helper thread, which must take
  // no large buffer from malloc (see src/obs/DESIGN.md), so its column is
  // sized here and its buffers and dictionary are page-mapped. The streams
  // are separate, so the bytes are the same as one thread generating both.
  orders->column("o_comment").Resize(card.orders);
  ForkJoin(2, [&](size_t task) {
    if (task == 1) {
      GenOrderComments(orders, card.orders);
      return;
    }
    Random rng(seed);
    GenRegionNation(catalog);
    GenSupplier(catalog, card.supplier, &rng);
    GenCustomer(catalog, card.customer, &rng);
    GenPart(catalog, card.part, &rng);
    GenPartsupp(catalog, card.part, card.supplier, &rng);
    GenOrdersAndLineitem(catalog, card, &rng);
  });
  // Secondary indexes (zone maps, dictionary-code CSR, inverted token
  // index) are built over the loaded, sorted dictionaries, so code order
  // matches string order inside the index structures too. o_comment is the
  // one free-text column queries probe with %word% patterns. Every table's
  // token indexes, code indexes and zone-map columns are tasks of one list.
  std::vector<std::pair<Table*, TableIndexOptions>> tables;
  for (const char* name : {"lineitem", "orders", "partsupp", "part",
                           "customer", "supplier", "nation", "region"}) {
    Table* table = catalog->GetTable(name);
    TableIndexOptions options;
    if (table == orders) options.text_columns = {"o_comment"};
    tables.emplace_back(table, std::move(options));
  }
  AttachIndexes(std::move(tables));
}

void BuildTpchDatabase(Catalog* catalog, double sf, uint64_t seed) {
  CreateTpchSchema(catalog);
  GenerateTpchData(catalog, sf, seed);
}

}  // namespace aqe::tpch
