// Unit tests for the util substrate: rng, stats, bit matrix, thread pool,
// status.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/bit_matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tcf {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextBoundedCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleRangeRespected) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    double d = rng.NextDouble(2.5, 7.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 7.5);
  }
}

TEST(Rng, NextBoolDegenerateProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng rng(29);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleFullRangeIsPermutation) {
  Rng rng(37);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(41);
  Rng fork1 = a.Fork();
  Rng b(41);
  Rng fork2 = b.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fork1.Next(), fork2.Next());
}

// ---------------------------------------------------------------- Stats

TEST(Accumulator, MeanOfConstants) {
  Accumulator acc;
  for (int i = 0; i < 5; ++i) acc.Add(4.0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.AvgDeviation(), 0.0);
  EXPECT_DOUBLE_EQ(acc.StdDev(), 0.0);
}

TEST(Accumulator, MeanAndDeviation) {
  Accumulator acc;
  acc.AddAll({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.5);
  // |1-2.5| + |2-2.5| + |3-2.5| + |4-2.5| = 1.5+0.5+0.5+1.5 = 4 / 4 = 1.
  EXPECT_DOUBLE_EQ(acc.AvgDeviation(), 1.0);
}

TEST(Accumulator, AvgDeviationIsThePaperStatistic) {
  // Table 2 style: sizes {780, 804} around mean 792 -> avg deviation 12.
  Accumulator acc;
  acc.AddAll({780.0, 804.0});
  EXPECT_DOUBLE_EQ(acc.AvgDeviation(), 12.0);
}

TEST(Accumulator, MinMaxSumCount) {
  Accumulator acc;
  acc.AddAll({5.0, -1.0, 3.0});
  EXPECT_DOUBLE_EQ(acc.Min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.Sum(), 7.0);
  EXPECT_EQ(acc.count(), 3u);
}

TEST(Accumulator, SampleStdDev) {
  Accumulator acc;
  acc.AddAll({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(acc.StdDev(), 2.138, 1e-3);
}

TEST(Accumulator, PercentileNearestRank) {
  Accumulator acc;
  acc.AddAll({30.0, 10.0, 50.0, 20.0, 40.0});  // unsorted on purpose
  EXPECT_DOUBLE_EQ(acc.Percentile(50), 30.0);  // rank ceil(2.5) = 3
  EXPECT_DOUBLE_EQ(acc.Percentile(20), 10.0);  // rank ceil(1.0) = 1
  EXPECT_DOUBLE_EQ(acc.Percentile(90), 50.0);  // rank ceil(4.5) = 5
}

TEST(Accumulator, PercentileBoundaries) {
  // The rank-math hardening: ceil(p/100 * n) yields rank 0 for p == 0 and
  // can yield 0 for denormal-small p (1e-9/100 * n underflows the ceil)
  // or n + 1-epsilon for p == 100 — all must clamp into [1, n].
  Accumulator acc;
  acc.AddAll({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(acc.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(1e-9), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(1e-300), 1.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100.0), 4.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(99.999999), 4.0);

  Accumulator one;
  one.Add(7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(1e-9), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(50.0), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(100.0), 7.5);
}

TEST(Accumulator, PercentileCacheInvalidatedByAdd) {
  // The sorted view is cached between Percentile calls (a p50/p95/p99
  // snapshot sorts once); Add must invalidate it.
  Accumulator acc;
  acc.AddAll({10.0, 20.0});
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 20.0);
  acc.Add(30.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 30.0);
  acc.Add(5.0);
  EXPECT_DOUBLE_EQ(acc.Percentile(0), 5.0);
}

TEST(Accumulator, ReservoirCapBoundsStorageButNotTotals) {
  Accumulator acc(/*max_samples=*/64);
  for (int i = 1; i <= 10000; ++i) acc.Add(static_cast<double>(i));
  EXPECT_EQ(acc.count(), 10000u);
  EXPECT_EQ(acc.samples().size(), 64u);  // bounded storage
  // Count/sum/mean/min/max stay exact over the whole stream.
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 10000.0);
  EXPECT_DOUBLE_EQ(acc.Sum(), 10000.0 * 10001.0 / 2.0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 10001.0 / 2.0);
  // The reservoir is a uniform sample of [1, 10000], so its median is a
  // (loose) estimate of the stream median.
  EXPECT_GT(acc.Percentile(50), 1000.0);
  EXPECT_LT(acc.Percentile(50), 9000.0);
  for (double s : acc.samples()) {
    EXPECT_GE(s, 1.0);
    EXPECT_LE(s, 10000.0);
  }
}

TEST(Accumulator, UncappedKeepsEverySample) {
  Accumulator acc;
  for (int i = 0; i < 1000; ++i) acc.Add(static_cast<double>(i));
  EXPECT_EQ(acc.samples().size(), 1000u);
  EXPECT_EQ(acc.max_samples(), 0u);
  EXPECT_DOUBLE_EQ(acc.Percentile(100), 999.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"algo", "F"});
  t.AddRow({"center-based", "791.8"});
  t.AddRow({"bea", "93.2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| algo         | F     |"), std::string::npos);
  EXPECT_NE(s.find("| bea          | 93.2  |"), std::string::npos);
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(2.25, 2), "2.25");
  EXPECT_EQ(TablePrinter::Fmt(2.25, 1), "2.2");
  EXPECT_EQ(TablePrinter::Fmt(3.0, 0), "3");
}

// ---------------------------------------------------------------- BitMatrix

TEST(BitMatrix, SetGetRoundTrip) {
  BitMatrix m(70);  // crosses a word boundary
  m.Set(0, 0);
  m.Set(69, 69);
  m.Set(63, 64);
  m.Set(64, 63);
  EXPECT_TRUE(m.Get(0, 0));
  EXPECT_TRUE(m.Get(69, 69));
  EXPECT_TRUE(m.Get(63, 64));
  EXPECT_TRUE(m.Get(64, 63));
  EXPECT_FALSE(m.Get(1, 0));
  m.Set(63, 64, false);
  EXPECT_FALSE(m.Get(63, 64));
}

TEST(BitMatrix, CountOnes) {
  BitMatrix m(10);
  EXPECT_EQ(m.CountOnes(), 0u);
  for (size_t i = 0; i < 10; ++i) m.Set(i, i);
  EXPECT_EQ(m.CountOnes(), 10u);
  EXPECT_EQ(m.ColumnOnes(3), 1u);
}

TEST(BitMatrix, ColumnInnerProductMatchesDefinition) {
  // Columns a = {rows 1,2,5}, b = {rows 2,5,7}: inner product 2.
  BitMatrix m(8);
  for (size_t r : {1, 2, 5}) m.Set(r, 0);
  for (size_t r : {2, 5, 7}) m.Set(r, 1);
  EXPECT_EQ(m.ColumnInnerProduct(0, 1), 2u);
  EXPECT_EQ(m.ColumnInnerProduct(0, 0), 3u);
  EXPECT_EQ(m.ColumnInnerProduct(1, 0), 2u);
}

TEST(BitMatrix, InnerProductAcrossWordBoundary) {
  BitMatrix m(130);
  for (size_t r = 0; r < 130; r += 2) m.Set(r, 0);
  for (size_t r = 0; r < 130; r += 4) m.Set(r, 1);
  EXPECT_EQ(m.ColumnInnerProduct(0, 1), 33u);  // multiples of 4 in [0,130)
}

TEST(BitMatrix, ToStringShape) {
  BitMatrix m(2);
  m.Set(0, 1);
  EXPECT_EQ(m.ToString(), "01\n00\n");
}

// ---------------------------------------------------------------- Status

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad c1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad c1");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([]() { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPool, ManyTasksDrain) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&]() { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForRangesCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForRanges(1000, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRangesZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelForRanges(0, [](size_t, size_t) { FAIL(); });
}

TEST(ThreadPool, SingleTaskRunsOnTheCallingThread) {
  // A lone task has nothing to overlap with, so both loops run it inline
  // (a single query's lone subquery skips the queue round trip); from two
  // tasks on, the workers run them.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id loop_thread;
  std::thread::id range_thread;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    loop_thread = std::this_thread::get_id();
  });
  pool.ParallelForRanges(1, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    range_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(loop_thread, caller);
  EXPECT_EQ(range_thread, caller);

  std::vector<std::thread::id> pair_threads(2);
  pool.ParallelFor(2, [&](size_t i) {
    pair_threads[i] = std::this_thread::get_id();
  });
  EXPECT_NE(pair_threads[0], caller);
  EXPECT_NE(pair_threads[1], caller);
}

TEST(ThreadPool, ParallelForRangesSmallerThanWorkerCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelForRanges(3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, FailedTaskRethrowsOnlyAfterEveryTaskFinished) {
  // Task 0 throws at once while the others are still sleeping; the loops
  // must not return (and free the frame `fn` captures) before they finish.
  ThreadPool pool(8);
  std::atomic<int> finished{0};
  auto task = [&](size_t i) {
    if (i == 0) throw std::runtime_error("task 0 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1);
  };
  EXPECT_THROW(pool.ParallelFor(8, task), std::runtime_error);
  EXPECT_EQ(finished.load(), 7);

  finished = 0;
  EXPECT_THROW(pool.ParallelForRanges(8,
                                      [&](size_t begin, size_t end) {
                                        for (size_t i = begin; i < end; ++i) {
                                          task(i);
                                        }
                                      }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // later read, bigger
}

}  // namespace
}  // namespace tcf
