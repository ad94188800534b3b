#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/memory_tracker.h"
#include "runtime/agg_hash_table.h"
#include "runtime/join_hash_table.h"
#include "runtime/output_buffer.h"
#include "runtime/runtime_functions.h"
#include "runtime/runtime_registry.h"
#include "runtime/sorter.h"
#include "runtime/thread_index.h"

namespace aqe {
namespace {

TEST(JoinHashTableTest, InsertAndLookup) {
  JoinHashTable ht(/*payload_slots=*/2);
  auto* p1 = static_cast<int64_t*>(ht.Insert(42));
  p1[0] = 7;
  p1[1] = 8;
  auto* p2 = static_cast<int64_t*>(ht.Insert(43));
  p2[0] = 9;
  EXPECT_EQ(ht.size(), 2u);
  ht.Seal();

  void* node = ht.Lookup(42);
  ASSERT_NE(node, nullptr);
  auto* payload = reinterpret_cast<int64_t*>(static_cast<uint8_t*>(node) + 16);
  EXPECT_EQ(payload[0], 7);
  EXPECT_EQ(payload[1], 8);
  EXPECT_EQ(JoinHashTable::Next(node, 42), nullptr);
  EXPECT_EQ(ht.Lookup(99), nullptr);
}

TEST(JoinHashTableTest, DuplicateKeysChain) {
  JoinHashTable ht(1);
  for (int64_t i = 0; i < 5; ++i) {
    static_cast<int64_t*>(ht.Insert(7))[0] = i;
  }
  ht.Seal();
  std::multiset<int64_t> seen;
  for (void* node = ht.Lookup(7); node != nullptr;
       node = JoinHashTable::Next(node, 7)) {
    seen.insert(*reinterpret_cast<int64_t*>(
        static_cast<uint8_t*>(node) + 16));
  }
  EXPECT_EQ(seen, (std::multiset<int64_t>{0, 1, 2, 3, 4}));
}

TEST(JoinHashTableTest, ManyKeysNoLoss) {
  // 4 MiB directory (mapped, huge-page advised) and 12 arena chunks
  // growing from 96 KiB to 768 KiB (mapped).
  constexpr int64_t kKeys = 300000;
  JoinHashTable ht(1);
  for (int64_t i = 0; i < kKeys; ++i) {
    static_cast<int64_t*>(ht.Insert(i))[0] = i * 3;
  }
  EXPECT_EQ(ht.size(), static_cast<uint64_t>(kKeys));
  ht.Seal();
  EXPECT_EQ(ht.directory_slots(), 1u << 19);
  for (int64_t i = 0; i < kKeys; ++i) {
    void* node = ht.Lookup(i);
    ASSERT_NE(node, nullptr) << i;
    EXPECT_EQ(*reinterpret_cast<int64_t*>(static_cast<uint8_t*>(node) + 16),
              i * 3);
  }
}

TEST(JoinHashTableTest, ConcurrentInserts) {
  JoinHashTable ht(1);
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ht, t] {
      runtime_internal::SetThreadIndex(t);
      for (int64_t i = 0; i < kPerThread; ++i) {
        static_cast<int64_t*>(ht.Insert(t * kPerThread + i))[0] = i;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ht.size(), static_cast<uint64_t>(kThreads * kPerThread));
  ht.Seal();
  for (int64_t k = 0; k < kThreads * kPerThread; ++k) {
    void* node = ht.Lookup(k);
    ASSERT_NE(node, nullptr) << k;
    EXPECT_EQ(*reinterpret_cast<int64_t*>(static_cast<uint8_t*>(node) + 16),
              k % kPerThread);
  }
}

// The directory is sized at seal from the entries actually inserted — a
// power of two of at least max(16, count) slots — and charged then.
TEST(JoinHashTableTest, SealSizesDirectoryToInsertedCount) {
  for (uint64_t count : {0u, 5u, 16u, 17u, 1000u, 70000u}) {
    QueryMemoryTracker tracker;
    {
      JoinHashTable ht(1, &tracker);
      for (uint64_t k = 0; k < count; ++k) {
        ht.Insert(static_cast<int64_t>(k));
      }
      uint64_t slots = 16;
      while (slots < count) slots <<= 1;
      const uint64_t before = tracker.current_bytes();
      ht.Seal();
      EXPECT_EQ(ht.directory_slots(), slots) << count;
      EXPECT_EQ(tracker.current_bytes() - before, slots * sizeof(void*))
          << count;
      ht.Seal();  // idempotent: no second directory, no second charge
      EXPECT_EQ(tracker.current_bytes() - before, slots * sizeof(void*))
          << count;
      for (uint64_t k = 0; k < count; ++k) {
        ASSERT_NE(ht.Lookup(static_cast<int64_t>(k)), nullptr) << k;
      }
      EXPECT_EQ(ht.Lookup(-1), nullptr);
    }
    EXPECT_EQ(tracker.current_bytes(), 0u) << count;
  }
}

// An arena is charged by the pages its nodes reach: a 5-row table built on
// 4 workers is charged one page per worker and its 16-slot directory.
TEST(JoinHashTableTest, SmallTableChargesSmallChunks) {
  QueryMemoryTracker tracker;
  {
    JoinHashTable ht(1, &tracker);
    constexpr int kThreads = 4;
    constexpr int64_t kKeys = 5;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ht, t] {
        runtime_internal::SetThreadIndex(t);
        for (int64_t k = t; k < kKeys; k += kThreads) ht.Insert(k);
      });
    }
    for (auto& th : threads) th.join();
    ht.Seal();
    EXPECT_EQ(ht.size(), static_cast<uint64_t>(kKeys));
    EXPECT_LE(tracker.current_bytes(), kThreads * 4096u + 16 * 8);
    for (int64_t k = 0; k < kKeys; ++k) EXPECT_NE(ht.Lookup(k), nullptr);
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

// A seal split into node ranges that threads link concurrently (as the
// engine's parallel seal does) links every node: each key's chain holds
// exactly the payloads the serial seal's chain holds.
TEST(JoinHashTableTest, ConcurrentLinkNodesMatchesSerialSeal) {
  constexpr int kThreads = 4;
  constexpr int64_t kRows = 100000;  // several arena chunks per thread
  constexpr int64_t kKeys = 25000;
  JoinHashTable serial(1);
  JoinHashTable split(1);
  for (JoinHashTable* ht : {&serial, &split}) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([ht, t] {
        runtime_internal::SetThreadIndex(t);
        for (int64_t r = t; r < kRows; r += kThreads) {
          *static_cast<int64_t*>(ht->Insert(r % kKeys)) = r;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  serial.Seal();
  const uint64_t nodes = split.BeginSeal();
  ASSERT_EQ(nodes, static_cast<uint64_t>(kRows));
  EXPECT_EQ(split.directory_slots(), serial.directory_slots());
  // Uneven ranges, some crossing chunk and arena boundaries.
  const uint64_t bounds[] = {0, 1, 7000, 32768, 60001, nodes};
  std::vector<std::thread> linkers;
  for (size_t i = 0; i + 1 < std::size(bounds); ++i) {
    linkers.emplace_back(
        [&split, &bounds, i] { split.LinkNodes(bounds[i], bounds[i + 1]); });
  }
  for (auto& th : linkers) th.join();
  auto payloads = [](const JoinHashTable& ht, int64_t key) {
    std::vector<int64_t> out;
    for (void* n = ht.Lookup(key); n != nullptr;
         n = JoinHashTable::Next(n, key)) {
      out.push_back(*reinterpret_cast<int64_t*>(static_cast<uint8_t*>(n) + 16));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(payloads(split, k), payloads(serial, k)) << k;
  }
}

TEST(JoinHashTableDeathTest, InsertAfterSealDies) {
  JoinHashTable ht(1);
  ht.Insert(1);
  ht.Seal();
  EXPECT_DEATH(ht.Insert(2), "insert after Seal");
}

TEST(JoinHashTableDeathTest, LookupBeforeSealDies) {
  JoinHashTable ht(1);
  ht.Insert(1);
  EXPECT_DEATH(ht.Lookup(1), "probed before Seal");
}

TEST(AggHashTableSetDeathTest, ReadBeforeMergeDies) {
  AggHashTableSet set({AggKind::kSum});
  *static_cast<int64_t*>(set.Local()->FindOrInsert(1)) += 1;
  EXPECT_DEATH(set.ForEach([](int64_t, void*) {}), "read before Merge");
  // A second thread's groups leave a run to fold after BeginMerge.
  std::thread([&set] {
    runtime_internal::SetThreadIndex(1);
    *static_cast<int64_t*>(set.Local()->FindOrInsert(1)) += 1;
  }).join();
  ASSERT_EQ(set.BeginMerge(), 2u);
  EXPECT_DEATH(set.size(), "read before Merge");
}

TEST(JoinHashTableTest, ForEachVisitsAll) {
  JoinHashTable ht(1);
  for (int64_t i = 0; i < 100; ++i) ht.Insert(i);
  ht.Seal();
  int count = 0;
  int64_t key_sum = 0;
  ht.ForEach([&](int64_t key, void*) {
    ++count;
    key_sum += key;
  });
  EXPECT_EQ(count, 100);
  EXPECT_EQ(key_sum, 99 * 100 / 2);
}

/// Every merged group of `set`: its key and payload slots. A key visited
/// twice fails the test.
std::map<int64_t, std::vector<int64_t>> MergedGroups(
    const AggHashTableSet& set) {
  std::map<int64_t, std::vector<int64_t>> groups;
  const size_t width = set.kinds().size();
  set.ForEach([&](int64_t key, void* payload) {
    const auto* p = static_cast<const int64_t*>(payload);
    EXPECT_TRUE(groups.emplace(key, std::vector<int64_t>(p, p + width)).second)
        << "key " << key << " visited twice";
  });
  return groups;
}

TEST(AggHashTableTest, FindOrInsertInitializes) {
  AggHashTableSet set({AggKind::kSum, AggKind::kMin});
  AggHashTable* ht = set.Local();
  auto* p = static_cast<int64_t*>(ht->FindOrInsert(5));
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], INT64_MAX);
  p[0] = 10;
  auto* q = static_cast<int64_t*>(ht->FindOrInsert(5));
  EXPECT_EQ(q, p);
  EXPECT_EQ(q[0], 10);
  EXPECT_EQ(ht->size(), 1u);
}

// A thread table doubles only while its arrays stay within kAggTableBytes;
// past that a full partition spills to its run, and the merge folds every
// group once. The runs are charged by the pages their entries reach.
TEST(AggHashTableTest, TableStopsGrowingAtItsCapAndSpills) {
  constexpr int64_t kKeys = 100000;
  QueryMemoryTracker tracker;
  {
    AggHashTableSet set({AggKind::kSum}, &tracker);
    AggHashTable* ht = set.Local();
    uint64_t largest = 0;
    for (int64_t k = 0; k < kKeys; ++k) {
      *static_cast<int64_t*>(ht->FindOrInsert(k)) = k * k;
      largest = std::max(largest, ht->footprint());
    }
    EXPECT_LE(largest, kAggTableBytes);
    EXPECT_GT(largest, kAggTableBytes / 2);
    EXPECT_LT(ht->size(), static_cast<uint64_t>(kKeys));  // it spilled
    set.Merge();
    const auto groups = MergedGroups(set);
    ASSERT_EQ(groups.size(), static_cast<uint64_t>(kKeys));
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(groups.at(k)[0], k * k) << k;
    }
    EXPECT_EQ(tracker.current_bytes(), set.footprint());
    // 16 bytes per group, and at most a page more per run.
    EXPECT_GE(set.footprint(), kKeys * 16u);
    EXPECT_LE(set.footprint(), kKeys * 16u + kAggPartitions * 4096u);
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

TEST(AggHashTableTest, NegativeKeys) {
  AggHashTableSet set({AggKind::kSum});
  *static_cast<int64_t*>(set.Local()->FindOrInsert(-42)) = 1;
  set.Merge();
  const auto groups = MergedGroups(set);
  EXPECT_EQ(groups.count(-42), 1u);
  EXPECT_EQ(groups.count(42), 0u);
}

TEST(AggHashTableSetTest, PerThreadTablesAndMerge) {
  AggHashTableSet set({AggKind::kSum});
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&set, t] {
      runtime_internal::SetThreadIndex(t);
      AggHashTable* local = set.Local();
      for (int64_t k = 0; k < 10; ++k) {
        *static_cast<int64_t*>(local->FindOrInsert(k)) += t + 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.BeginMerge(), 30u);  // every group has 3 thread entries
  for (int p = 0; p < kAggPartitions; ++p) set.MergePartition(p);
  EXPECT_EQ(set.size(), 10u);
  const auto groups = MergedGroups(set);
  for (int64_t k = 0; k < 10; ++k) EXPECT_EQ(groups.at(k)[0], 1 + 2 + 3);
}

// The merge folds each run in place: merging one large thread table and
// two small ones holds the runs, the tables' last spills and one
// partition's index, never a merged copy beside the runs.
TEST(AggHashTableSetTest, MergeFoldsRunsInPlace) {
  QueryMemoryTracker tracker;
  {
    AggHashTableSet set({AggKind::kSum}, &tracker);
    auto fill = [&set](int thread, int64_t keys) {
      std::thread worker([&set, thread, keys] {
        runtime_internal::SetThreadIndex(thread);
        AggHashTable* local = set.Local();
        for (int64_t k = 0; k < keys; ++k) {
          *static_cast<int64_t*>(local->FindOrInsert(k)) += thread;
        }
      });
      worker.join();
    };
    constexpr int64_t kKeys = 100000;
    fill(1, kKeys);
    fill(0, 10);
    fill(2, 10);
    const uint64_t before = tracker.current_bytes();

    EXPECT_GT(set.BeginMerge(), 0u);
    for (int p = 0; p < kAggPartitions; ++p) set.MergePartition(p);
    EXPECT_EQ(set.size(), static_cast<uint64_t>(kKeys));
    const auto groups = MergedGroups(set);
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(groups.at(k)[0], k < 10 ? 3 : 1) << k;
    }
    // Only the runs are left: every thread table was freed.
    EXPECT_EQ(tracker.current_bytes(), set.footprint());
    // A partition's index takes 4/3 of 4 bytes per entry, and a partition
    // holds about a 16th of the keys.
    EXPECT_LE(tracker.peak_bytes(), before + kAggTableBytes + kKeys);
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

/// Keys for the merge property test: random over the whole i64 range,
/// clustered small ones (so threads share groups), and the extremes.
int64_t PropertyKey(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return INT64_MIN;
    case 1: return INT64_MAX;
    case 2: return static_cast<int64_t>(rng());
    default: return static_cast<int64_t>(rng() % 4096) - 2048;
  }
}

// The partitioned merge against a std::map fold, for every AggKind, on 1,
// 2, 4 and 8 threads (thread 1 fetches its table but inserts nothing),
// with the partitions merged concurrently.
TEST(AggHashTableSetTest, PartitionedMergeMatchesMapFold) {
  const std::vector<AggKind> kinds = {AggKind::kSum, AggKind::kCount,
                                      AggKind::kMin, AggKind::kMax};
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    QueryMemoryTracker tracker;
    {
      AggHashTableSet set(kinds, &tracker);
      std::map<int64_t, std::vector<int64_t>> expected;
      std::mt19937_64 rng(static_cast<uint64_t>(threads));
      for (int t = 0; t < threads; ++t) {
        runtime_internal::SetThreadIndex(t);
        AggHashTable* local = set.Local();
        if (t == 1) continue;
        for (int i = 0; i < 5000; ++i) {
          const int64_t key = PropertyKey(rng);
          const int64_t value = static_cast<int64_t>(rng() % 2000001) - 1000000;
          auto* p = static_cast<int64_t*>(local->FindOrInsert(key));
          p[0] += value;
          p[1] += 1;
          p[2] = std::min(p[2], value);
          p[3] = std::max(p[3], value);
          auto [it, fresh] = expected.try_emplace(
              key, std::vector<int64_t>{0, 0, INT64_MAX, INT64_MIN});
          std::vector<int64_t>& e = it->second;
          e[0] += value;
          e[1] += 1;
          e[2] = std::min(e[2], value);
          e[3] = std::max(e[3], value);
        }
      }
      runtime_internal::SetThreadIndex(0);
      set.BeginMerge();
      std::vector<std::thread> mergers;
      for (int m = 0; m < 4; ++m) {
        mergers.emplace_back([&set, m] {
          for (int p = m; p < kAggPartitions; p += 4) set.MergePartition(p);
        });
      }
      for (auto& merger : mergers) merger.join();

      ASSERT_EQ(set.size(), expected.size());
      EXPECT_EQ(MergedGroups(set), expected);
      EXPECT_EQ(tracker.current_bytes(), set.footprint());
    }
    EXPECT_EQ(tracker.current_bytes(), 0u);
  }
}

TEST(AggHashTableSetTest, MergeOfNoGroupsIsEmpty) {
  QueryMemoryTracker tracker;
  {
    AggHashTableSet set({AggKind::kSum, AggKind::kMax}, &tracker);
    set.Local();  // a thread that saw no tuples
    EXPECT_EQ(set.BeginMerge(), 0u);
    EXPECT_EQ(set.size(), 0u);
    set.ForEach([](int64_t, void*) { ADD_FAILURE() << "no groups expected"; });
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

// One thread's table that never spilled holds each key once, so its
// partitions move to the runs as they are: nothing is left to fold, and
// only the runs stay charged.
TEST(AggHashTableSetTest, OneUnspilledTableNeedsNoFold) {
  QueryMemoryTracker tracker;
  {
    AggHashTableSet set({AggKind::kSum}, &tracker);
    AggHashTable* local = set.Local();
    for (int64_t k = 0; k < 1000; ++k) {
      *static_cast<int64_t*>(local->FindOrInsert(k * 7919)) += k;
    }
    ASSERT_EQ(local->size(), 1000u);  // below the cap: nothing spilled
    EXPECT_EQ(set.BeginMerge(), 0u);
    EXPECT_EQ(tracker.current_bytes(), set.footprint());
    EXPECT_EQ(set.size(), 1000u);
    const auto groups = MergedGroups(set);
    for (int64_t k = 0; k < 1000; ++k) EXPECT_EQ(groups.at(k * 7919)[0], k);
  }
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

/// A key stream for the aggregation differential: `rows` keys over
/// `groups` distinct keys.
enum class KeyStream { kSorted, kRandom, kOnePartition };

std::vector<int64_t> MakeKeyStream(KeyStream stream, int64_t rows,
                                   int64_t groups) {
  std::vector<int64_t> keys;  // the distinct keys
  if (stream == KeyStream::kOnePartition) {
    // Keys whose hashes share their top bits: every group in partition 0.
    for (int64_t k = 0; static_cast<int64_t>(keys.size()) < groups; ++k) {
      if (AggHashTable::PartitionOf(AggHashTable::Hash(k)) == 0) {
        keys.push_back(k);
      }
    }
  } else {
    for (int64_t g = 0; g < groups; ++g) keys.push_back(g * 7 - groups);
  }
  std::vector<int64_t> out(static_cast<size_t>(rows));
  std::mt19937_64 rng(static_cast<uint64_t>(stream) + 1);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t g = stream == KeyStream::kSorted
                          ? r * groups / rows
                          : static_cast<int64_t>(rng() % groups);
    out[static_cast<size_t>(r)] = keys[static_cast<size_t>(g)];
  }
  return out;
}

// The aggregation against std::unordered_map on 1.8 M rows of 450 k groups:
// sorted (as Q18's lineitem), random, and random over keys that all fall
// in one partition, with every AggKind, on 1 and 4 threads (each thread
// takes a contiguous quarter, as morsels do). On every stream the tracked
// peak stays within twice the entry bytes of the groups, plus each
// thread's table and a last page per run: a random stream does not hold
// an entry per tuple, and one partition does not cost 16 times its groups.
TEST(AggHashTableSetTest, MatchesUnorderedMapOnEveryStream) {
  constexpr int64_t kRows = 1800000;
  constexpr int64_t kGroups = 450000;
  const std::vector<AggKind> kinds = {AggKind::kSum, AggKind::kCount,
                                      AggKind::kMin, AggKind::kMax};
  const uint64_t entry_bytes = 8 * (1 + kinds.size());
  for (KeyStream stream :
       {KeyStream::kSorted, KeyStream::kRandom, KeyStream::kOnePartition}) {
    const std::vector<int64_t> keys = MakeKeyStream(stream, kRows, kGroups);
    const auto value = [](int64_t r) {
      return static_cast<int64_t>((static_cast<uint64_t>(r) * 2654435761u) %
                                  2000001) -
             1000000;
    };
    std::unordered_map<int64_t, std::vector<int64_t>> expected;
    for (int64_t r = 0; r < kRows; ++r) {
      auto [it, fresh] = expected.try_emplace(
          keys[static_cast<size_t>(r)],
          std::vector<int64_t>{0, 0, INT64_MAX, INT64_MIN});
      std::vector<int64_t>& e = it->second;
      e[0] += value(r);
      e[1] += 1;
      e[2] = std::min(e[2], value(r));
      e[3] = std::max(e[3], value(r));
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "stream " << static_cast<int>(stream)
                                      << ", " << threads << " threads");
      QueryMemoryTracker tracker;
      AggHashTableSet set(kinds, &tracker);
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          runtime_internal::SetThreadIndex(t);
          AggHashTable* local = set.Local();
          for (int64_t r = kRows * t / threads;
               r < kRows * (t + 1) / threads; ++r) {
            auto* p = static_cast<int64_t*>(
                local->FindOrInsert(keys[static_cast<size_t>(r)]));
            p[0] += value(r);
            p[1] += 1;
            p[2] = std::min(p[2], value(r));
            p[3] = std::max(p[3], value(r));
          }
        });
      }
      for (auto& worker : workers) worker.join();
      set.BeginMerge();
      std::vector<std::thread> mergers;
      for (int m = 0; m < threads; ++m) {
        mergers.emplace_back([&set, m, threads] {
          for (int p = m; p < kAggPartitions; p += threads) {
            set.MergePartition(p);
          }
        });
      }
      for (auto& merger : mergers) merger.join();

      ASSERT_EQ(set.size(), expected.size());
      uint64_t matched = 0;
      set.ForEach([&](int64_t key, void* payload) {
        const auto* p = static_cast<const int64_t*>(payload);
        const auto it = expected.find(key);
        ASSERT_NE(it, expected.end()) << key;
        EXPECT_EQ(std::vector<int64_t>(p, p + kinds.size()), it->second)
            << key;
        ++matched;
      });
      EXPECT_EQ(matched, expected.size());
      const uint64_t fixed =
          static_cast<uint64_t>(threads) * kAggTableBytes +
          kAggPartitions * 4096u;
      EXPECT_LE(tracker.peak_bytes(),
                2 * entry_bytes * expected.size() + fixed);
    }
  }
}

#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define AQE_TEST_RSS 1
/// Resident set size of this process, from /proc/self/status.
uint64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  }
  return 0;
}
#endif

TEST(PageAllocatorTest, FreedTablesReturnMemoryToTheOs) {
#ifndef AQE_TEST_RSS
  GTEST_SKIP() << "needs /proc and the unsanitized allocator";
#else
  uint64_t start = 0;
  uint64_t end = 0;
  std::unique_ptr<int64_t> pin;
  // A worker thread allocates from its own malloc arena, as query workers
  // do.
  std::thread worker([&] {
    start = ResidentBytes();
    {
      // 16 MiB of aggregation runs, ~32 MiB of join directory and arena
      // chunks.
      constexpr int64_t kKeys = 1 << 20;
      AggHashTableSet agg({AggKind::kSum});
      JoinHashTable join(1);
      for (int64_t k = 0; k < kKeys; ++k) {
        agg.Local()->FindOrInsert(k);
        join.Insert(k);
      }
      agg.Merge();
      join.Seal();
      // Pins the heap top, so malloc cannot trim what the tables freed.
      pin = std::make_unique<int64_t>(0);
    }
    end = ResidentBytes();
  });
  worker.join();
  ASSERT_GT(start, 0u);
  EXPECT_LE(end, start + (4u << 20))
      << "RSS " << (start >> 20) << " MiB -> " << (end >> 20) << " MiB";
#endif
}

TEST(OutputBufferTest, CollectsRows) {
  OutputBuffer out(3);
  for (int64_t i = 0; i < 10; ++i) {
    int64_t* row = out.AllocRow();
    row[0] = i;
    row[1] = i * 2;
    row[2] = i * 3;
  }
  EXPECT_EQ(out.num_rows(), 10u);
  auto rows = out.Rows();
  ASSERT_EQ(rows.size(), 10u);
  std::sort(rows.begin(), rows.end());
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)],
              (std::vector<int64_t>{i, i * 2, i * 3}));
  }
}

TEST(OutputBufferTest, CrossesChunkBoundaries) {
  OutputBuffer out(1);
  for (int64_t i = 0; i < 3000; ++i) *out.AllocRow() = i;
  auto rows = out.Rows();
  ASSERT_EQ(rows.size(), 3000u);
  int64_t sum = 0;
  for (const auto& row : rows) sum += row[0];
  EXPECT_EQ(sum, 2999 * 3000 / 2);
}

TEST(OutputBufferTest, MultiThreaded) {
  OutputBuffer out(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&out, t] {
      runtime_internal::SetThreadIndex(t);
      for (int64_t i = 0; i < 500; ++i) *out.AllocRow() = t * 1000 + i;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(out.num_rows(), 2000u);
}

TEST(SorterTest, SortAscendingDescending) {
  std::vector<std::vector<int64_t>> rows = {{3, 1}, {1, 2}, {2, 3}};
  SortRows(&rows, {{0, false, false}});
  EXPECT_EQ(rows[0][0], 1);
  EXPECT_EQ(rows[2][0], 3);
  SortRows(&rows, {{0, true, false}});
  EXPECT_EQ(rows[0][0], 3);
}

TEST(SorterTest, SecondaryKeyAndStability) {
  std::vector<std::vector<int64_t>> rows = {{1, 9}, {1, 3}, {0, 5}};
  SortRows(&rows, {{0, false, false}, {1, false, false}});
  EXPECT_EQ(rows[0], (std::vector<int64_t>{0, 5}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(rows[2], (std::vector<int64_t>{1, 9}));
}

TEST(SorterTest, DoubleKeys) {
  auto bits = [](double d) {
    int64_t b;
    std::memcpy(&b, &d, 8);
    return b;
  };
  std::vector<std::vector<int64_t>> rows = {{bits(2.5)}, {bits(-1.0)},
                                            {bits(0.25)}};
  SortRows(&rows, {{0, false, true}});
  double first;
  std::memcpy(&first, &rows[0][0], 8);
  EXPECT_DOUBLE_EQ(first, -1.0);
}

TEST(SorterTest, TopKTruncates) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i});
  TopK(&rows, {{0, true, false}}, 5);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0], 99);
  EXPECT_EQ(rows[4][0], 95);
}

TEST(RuntimeRegistryTest, BuiltinsRegistered) {
  RuntimeRegistry& reg = RuntimeRegistry::Global();
  ASSERT_NE(reg.Find("aqe_jht_insert"), nullptr);
  EXPECT_EQ(reg.Find("aqe_jht_insert")->num_args, 2);
  EXPECT_TRUE(reg.Find("aqe_jht_insert")->returns_value);
  ASSERT_NE(reg.Find("aqe_raise_overflow"), nullptr);
  EXPECT_FALSE(reg.Find("aqe_raise_overflow")->returns_value);
  EXPECT_EQ(reg.Find("not_a_function"), nullptr);
}

TEST(RuntimeRegistryTest, WrappersRoundTrip) {
  JoinHashTable ht(1);
  uint64_t payload =
      rt::aqe_jht_insert(reinterpret_cast<uint64_t>(&ht), 123);
  *reinterpret_cast<int64_t*>(payload) = 55;
  ht.Seal();
  uint64_t node = rt::aqe_jht_lookup(reinterpret_cast<uint64_t>(&ht), 123);
  ASSERT_NE(node, 0u);
  EXPECT_EQ(*reinterpret_cast<int64_t*>(node + 16), 55);
  EXPECT_EQ(rt::aqe_jht_next(node, 123), 0u);

  AggHashTableSet set({AggKind::kMin});
  uint64_t local = rt::aqe_agg_local(reinterpret_cast<uint64_t>(&set));
  uint64_t agg = rt::aqe_agg_find_or_insert(local, 9);
  EXPECT_EQ(*reinterpret_cast<int64_t*>(agg), INT64_MAX);

  OutputBuffer out(2);
  uint64_t row = rt::aqe_out_alloc_row(reinterpret_cast<uint64_t>(&out));
  reinterpret_cast<int64_t*>(row)[0] = 1;
  EXPECT_EQ(out.num_rows(), 1u);
}

}  // namespace
}  // namespace aqe
