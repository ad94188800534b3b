#include <gtest/gtest.h>
#include <sched.h>

#include <set>

#include "common/fixed_point.h"
#include "common/fork_join.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace aqe {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::Error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RandomTest, NextBelowInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RandomTest, NextBelowCoversAllValues) {
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, NextRangeInclusive) {
  Random rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextBoolProbability) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(FixedPointTest, RoundTrip) {
  EXPECT_EQ(DecimalFromDouble(12.34), 1234);
  EXPECT_DOUBLE_EQ(DecimalToDouble(1234), 12.34);
  EXPECT_EQ(DecimalFromDouble(-0.05), -5);
}

TEST(FixedPointTest, ToString) {
  EXPECT_EQ(DecimalToString(1234), "12.34");
  EXPECT_EQ(DecimalToString(-1234), "-12.34");
  EXPECT_EQ(DecimalToString(-5), "-0.05");
  EXPECT_EQ(DecimalToString(100), "1.00");
  EXPECT_EQ(DecimalToString(7), "0.07");
}

TEST(FixedPointTest, Mul) {
  // 2.00 * 3.50 == 7.00
  EXPECT_EQ(DecimalMul(200, 350), 700);
  // 0.10 * 0.10 == 0.01
  EXPECT_EQ(DecimalMul(10, 10), 1);
  // negative
  EXPECT_EQ(DecimalMul(-200, 350), -700);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  ::testing::Test::RecordProperty("sink", x);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms number >= s number
}

TEST(TimerTest, MonotonicNanosAdvances) {
  int64_t a = MonotonicNanos();
  int64_t b = MonotonicNanos();
  EXPECT_GE(b, a);
}

TEST(TimerTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0.0000123), "12.3us");
  EXPECT_EQ(FormatDuration(0.0123), "12.30ms");
  EXPECT_EQ(FormatDuration(1.5), "1.50s");
}

// ForkJoinWidth counts the CPUs the calling thread may run on, not the
// machine's: pinned to two CPUs, it reads 2.
TEST(ForkJoinTest, WidthCountsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  if (CPU_COUNT(&saved) < 2) GTEST_SKIP() << "needs two CPUs";
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0; CPU_COUNT(&two) < 2; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) CPU_SET(cpu, &two);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(two), &two), 0);
  const size_t width = ForkJoinWidth();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(width, 2u);
}

}  // namespace
}  // namespace aqe
