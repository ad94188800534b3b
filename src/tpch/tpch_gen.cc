#include "tpch/tpch_gen.h"

#include <array>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/fork_join.h"
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
constexpr const char* kCommentWords[16] = {
    "carefully", "quickly",  "furiously", "ironic",      "final",
    "pending",   "bold",     "regular",   "express",     "deposits",
    "accounts",  "packages", "theodolites", "foxes",     "ideas",
    "platelets"};

/// Adds `values` to `dict` in order; returns their codes, index for index.
template <size_t N>
std::array<int32_t, N> RegisterAll(Dictionary* dict,
                                   const char* const (&values)[N]) {
  std::array<int32_t, N> codes{};
  for (size_t i = 0; i < N; ++i) codes[i] = dict->GetOrAdd(values[i]);
  return codes;
}

void GenRegionNation(Catalog* catalog) {
  Table* region = catalog->GetTable("region");
  for (int i = 0; i < 5; ++i) {
    region->column(0).AppendInt(i);
    region->column(1).AppendInt(region->dictionary(1).GetOrAdd(kRegionNames[i]));
  }
  Table* nation = catalog->GetTable("nation");
  for (int i = 0; i < 25; ++i) {
    nation->column(0).AppendInt(i);
    nation->column(1).AppendInt(nation->dictionary(1).GetOrAdd(kNations[i].name));
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
  Dictionary& seg_dict = t->dictionary(t->ColumnIndex("c_mktsegment"));
  char buf[32];
  for (uint64_t i = 0; i < count; ++i) {
    custkey.AppendInt(static_cast<int64_t>(i) + 1);
    std::snprintf(buf, sizeof(buf), "Customer#%09llu",
                  static_cast<unsigned long long>(i + 1));
    name.AppendInt(name_dict.GetOrAdd(buf));
    nationkey.AppendInt(static_cast<int32_t>(rng->NextBelow(25)));
    mktsegment.AppendInt(seg_dict.GetOrAdd(kSegments[rng->NextBelow(5)]));
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
  Dictionary& brand_dict = t->dictionary(t->ColumnIndex("p_brand"));
  Dictionary& type_dict = t->dictionary(t->ColumnIndex("p_type"));
  Dictionary& cont_dict = t->dictionary(t->ColumnIndex("p_container"));
  char buf[64];
  for (uint64_t i = 0; i < count; ++i) {
    partkey.AppendInt(static_cast<int64_t>(i) + 1);
    std::snprintf(buf, sizeof(buf), "Brand#%llu%llu",
                  static_cast<unsigned long long>(rng->NextBelow(5) + 1),
                  static_cast<unsigned long long>(rng->NextBelow(5) + 1));
    brand.AppendInt(brand_dict.GetOrAdd(buf));
    std::snprintf(buf, sizeof(buf), "%s %s %s",
                  kTypeSyllable1[rng->NextBelow(6)],
                  kTypeSyllable2[rng->NextBelow(5)],
                  kTypeSyllable3[rng->NextBelow(5)]);
    type.AppendInt(type_dict.GetOrAdd(buf));
    size.AppendInt(static_cast<int32_t>(rng->NextBelow(50)) + 1);
    std::snprintf(buf, sizeof(buf), "%s %s",
                  kContainerSyllable1[rng->NextBelow(5)],
                  kContainerSyllable2[rng->NextBelow(8)]);
    container.AppendInt(cont_dict.GetOrAdd(buf));
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

struct OrderDates {
  int32_t min_orderdate;
  int32_t max_orderdate;
};

void GenOrdersAndLineitem(Catalog* catalog, uint64_t order_count,
                          uint64_t cust_count, uint64_t part_count,
                          uint64_t supp_count, Random* rng) {
  Table* ot = catalog->GetTable("orders");
  Table* lt = catalog->GetTable("lineitem");

  Column& o_orderkey = ot->column("o_orderkey");
  Column& o_custkey = ot->column("o_custkey");
  Column& o_orderstatus = ot->column("o_orderstatus");
  Column& o_totalprice = ot->column("o_totalprice");
  Column& o_orderdate = ot->column("o_orderdate");
  Column& o_orderpriority = ot->column("o_orderpriority");
  Column& o_shippriority = ot->column("o_shippriority");
  Dictionary& status_dict = ot->dictionary(ot->ColumnIndex("o_orderstatus"));
  Dictionary& prio_dict = ot->dictionary(ot->ColumnIndex("o_orderpriority"));

  Column& l_orderkey = lt->column("l_orderkey");
  Column& l_partkey = lt->column("l_partkey");
  Column& l_suppkey = lt->column("l_suppkey");
  Column& l_linenumber = lt->column("l_linenumber");
  Column& l_quantity = lt->column("l_quantity");
  Column& l_extendedprice = lt->column("l_extendedprice");
  Column& l_discount = lt->column("l_discount");
  Column& l_tax = lt->column("l_tax");
  Column& l_returnflag = lt->column("l_returnflag");
  Column& l_linestatus = lt->column("l_linestatus");
  Column& l_shipdate = lt->column("l_shipdate");
  Column& l_commitdate = lt->column("l_commitdate");
  Column& l_receiptdate = lt->column("l_receiptdate");
  Column& l_shipinstruct = lt->column("l_shipinstruct");
  Column& l_shipmode = lt->column("l_shipmode");
  Dictionary& rf_dict = lt->dictionary(lt->ColumnIndex("l_returnflag"));
  Dictionary& ls_dict = lt->dictionary(lt->ColumnIndex("l_linestatus"));
  Dictionary& si_dict = lt->dictionary(lt->ColumnIndex("l_shipinstruct"));
  Dictionary& sm_dict = lt->dictionary(lt->ColumnIndex("l_shipmode"));

  // Register dictionary entries in a fixed order so codes are stable across
  // scale factors (query constants resolve codes at plan time regardless),
  // and resolve each code once instead of hashing a string per row.
  const int32_t status_f = status_dict.GetOrAdd("F");
  const int32_t status_o = status_dict.GetOrAdd("O");
  const int32_t status_p = status_dict.GetOrAdd("P");
  const auto prio_code = RegisterAll(&prio_dict, kPriorities);
  const int32_t flag_r = rf_dict.GetOrAdd("R");
  const int32_t flag_a = rf_dict.GetOrAdd("A");
  const int32_t flag_n = rf_dict.GetOrAdd("N");
  const int32_t line_o = ls_dict.GetOrAdd("O");
  const int32_t line_f = ls_dict.GetOrAdd("F");
  const auto si_code = RegisterAll(&si_dict, kInstructions);
  const auto sm_code = RegisterAll(&sm_dict, kShipModes);

  const int32_t start_date = DateToDays(1992, 1, 1);
  const int32_t end_date = DateToDays(1998, 8, 2);
  // The "current date" used by the spec: lines shipped after it are still 'O'.
  const int32_t current_date = DateToDays(1995, 6, 17);

  // The part retail prices, re-derived (cheaper than a column lookup loop).
  auto retail_price = [](int64_t pk) {
    return 90000 + (pk / 10) % 20001 + 100 * (pk % 1000);
  };

  for (uint64_t o = 0; o < order_count; ++o) {
    // Sparse order keys like the spec (gaps of 8 every 32 keys).
    int64_t okey = static_cast<int64_t>((o / 8) * 32 + o % 8 + 1);
    int32_t odate = static_cast<int32_t>(
        start_date + rng->NextBelow(static_cast<uint64_t>(
                         end_date - start_date - 151)));
    int lines = static_cast<int>(rng->NextBelow(7)) + 1;
    int64_t total = 0;
    int f_lines = 0;
    for (int ln = 0; ln < lines; ++ln) {
      int64_t pk = static_cast<int64_t>(rng->NextBelow(part_count)) + 1;
      int64_t sk = static_cast<int64_t>(rng->NextBelow(supp_count)) + 1;
      int64_t qty_units = static_cast<int64_t>(rng->NextBelow(50)) + 1;
      int64_t eprice = qty_units * retail_price(pk);
      int64_t discount = rng->NextRange(0, 10);   // 0.00 .. 0.10
      int64_t tax = rng->NextRange(0, 8);         // 0.00 .. 0.08
      int32_t sdate = odate + static_cast<int32_t>(rng->NextBelow(121)) + 1;
      int32_t cdate = odate + static_cast<int32_t>(rng->NextBelow(61)) + 30;
      int32_t rdate = sdate + static_cast<int32_t>(rng->NextBelow(30)) + 1;
      bool shipped = rdate <= current_date;
      const int32_t rflag =
          shipped ? (rng->NextBool(0.5) ? flag_r : flag_a) : flag_n;
      const bool open = sdate > current_date;
      if (!open) ++f_lines;

      l_orderkey.AppendInt(okey);
      l_partkey.AppendInt(pk);
      l_suppkey.AppendInt(sk);
      l_linenumber.AppendInt(ln + 1);
      l_quantity.AppendInt(qty_units * 100);
      l_extendedprice.AppendInt(eprice);
      l_discount.AppendInt(discount);
      l_tax.AppendInt(tax);
      l_returnflag.AppendInt(rflag);
      l_linestatus.AppendInt(open ? line_o : line_f);
      l_shipdate.AppendInt(sdate);
      l_commitdate.AppendInt(cdate);
      l_receiptdate.AppendInt(rdate);
      l_shipinstruct.AppendInt(si_code[rng->NextBelow(4)]);
      l_shipmode.AppendInt(sm_code[rng->NextBelow(7)]);
      total += eprice;
    }
    const int32_t ostatus =
        f_lines == lines ? status_f : (f_lines == 0 ? status_o : status_p);
    o_orderkey.AppendInt(okey);
    o_custkey.AppendInt(static_cast<int64_t>(rng->NextBelow(cust_count)) + 1);
    o_orderstatus.AppendInt(ostatus);
    o_totalprice.AppendInt(total);
    o_orderdate.AppendInt(odate);
    o_orderpriority.AppendInt(prio_code[rng->NextBelow(5)]);
    o_shippriority.AppendInt(0);
  }
}

/// Fills o_comment, then sorts its dictionary and remaps the column. Each
/// order's comment is 4..8 vocabulary words; ~2% of orders embed
/// "special ... requests" in order, the Q13 predicate's target. Nearly all
/// comments are distinct, making this the engine's high-cardinality
/// dictionary column. The comments draw from their own deterministic stream
/// so the text column does not perturb the long-standing key/date/price
/// distributions (and the query results derived from them), and so they can
/// be generated beside the main stream: only this column and its dictionary
/// are touched.
void GenOrderComments(Table* orders, uint64_t order_count) {
  const int column = orders->ColumnIndex("o_comment");
  Column& o_comment = orders->column(column);
  Dictionary& cmt_dict = orders->dictionary(column);
  Random comment_rng(0x5EA7C0DEu);
  std::string comment;  // one buffer, reused for every order's comment
  for (uint64_t o = 0; o < order_count; ++o) {
    comment.clear();
    const int words = 4 + static_cast<int>(comment_rng.NextBelow(5));
    const bool special = comment_rng.NextBool(0.02);
    const int special_at =
        special ? static_cast<int>(comment_rng.NextBelow(
                      static_cast<uint64_t>(words - 1)))
                : -1;
    for (int wi = 0; wi < words; ++wi) {
      if (!comment.empty()) comment += ' ';
      if (wi == special_at) {
        comment += "special";
      } else if (special && wi == special_at + 1) {
        comment += "requests";
      } else {
        comment += kCommentWords[comment_rng.NextBelow(16)];
      }
    }
    o_comment.AppendInt(cmt_dict.GetOrAdd(comment));
  }
  orders->SortDictionary(column);
}

}  // namespace

void GenerateTpchData(Catalog* catalog, double sf, uint64_t seed) {
  const Cardinalities card = CardinalitiesForScale(sf);
  Table* orders = catalog->GetTable("orders");
  // Task 0, the main stream, stays on this thread: it grows every other
  // column on malloc, and the catalog keeps them. The comment task runs on a
  // helper thread, which must take no large buffer from malloc (see
  // src/obs/DESIGN.md), so its column is reserved here and its dictionary
  // is page-mapped. The streams are separate, so the bytes are the same as
  // one thread generating both.
  orders->column("o_comment").Reserve(card.orders);
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
    GenOrdersAndLineitem(catalog, card.orders, card.customer, card.part,
                         card.supplier, &rng);
  });
  // Establish the order-preserving dictionary invariant after bulk load:
  // codes become lexicographic, so LIKE-prefix predicates lower to integer
  // range compares (strings/like_lowering) and code order matches string
  // order everywhere. Queries resolve codes at plan time, so the remap is
  // invisible to them. Secondary indexes (zone maps, dictionary-code CSR,
  // inverted token index) are built after a table's dictionaries are sorted
  // so code order matches string order inside the index structures too.
  // o_comment is the one free-text column queries probe with %word%
  // patterns. Tables are independent tasks, largest first.
  static constexpr const char* kTables[] = {
      "lineitem", "orders", "partsupp", "part",
      "customer", "supplier", "nation",  "region"};
  ForkJoin(std::size(kTables), [&](size_t i) {
    Table* table = catalog->GetTable(kTables[i]);
    table->SortDictionaries();
    TableIndexOptions options;
    if (table == orders) options.text_columns = {"o_comment"};
    AttachTableIndexes(table, std::move(options));
  });
}

void BuildTpchDatabase(Catalog* catalog, double sf, uint64_t seed) {
  CreateTpchSchema(catalog);
  GenerateTpchData(catalog, sf, seed);
}

}  // namespace aqe::tpch
