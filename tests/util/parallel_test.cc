#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace resinfer {
namespace {

TEST(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelTest, ParallelForEachCoversRangeExactlyOnce) {
  constexpr int64_t kN = 5000;
  std::vector<std::atomic<int>> touched(kN);
  ParallelForEach(kN, [&](int64_t i, int /*thread*/) {
    touched[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelTest, EmptyAndSmallRanges) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, ThreadCountOverride) {
  int saved = DefaultThreadCount();
  SetDefaultThreadCount(1);
  EXPECT_EQ(DefaultThreadCount(), 1);
  // With one thread the callback thread_id is always 0.
  ParallelForEach(2000, [&](int64_t, int thread_id) {
    EXPECT_EQ(thread_id, 0);
  });
  SetDefaultThreadCount(0);  // restore auto
  EXPECT_GE(DefaultThreadCount(), 1);
  SetDefaultThreadCount(saved == DefaultThreadCount() ? 0 : 0);
}

TEST(ParallelTest, EnvThreadOverride) {
  // RESINFER_THREADS mirrors RESINFER_SIMD_LEVEL: a run-without-recompiling
  // override, consulted when no explicit SetDefaultThreadCount is active.
  SetDefaultThreadCount(0);
  ::setenv("RESINFER_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3);
  // Invalid values are ignored (hardware fallback, >= 1).
  ::setenv("RESINFER_THREADS", "zero", 1);
  EXPECT_GE(DefaultThreadCount(), 1);
  ::setenv("RESINFER_THREADS", "-2", 1);
  EXPECT_GE(DefaultThreadCount(), 1);
  // An explicit SetDefaultThreadCount beats the environment.
  ::setenv("RESINFER_THREADS", "3", 1);
  SetDefaultThreadCount(2);
  EXPECT_EQ(DefaultThreadCount(), 2);
  SetDefaultThreadCount(0);
  ::unsetenv("RESINFER_THREADS");
}

TEST(ParallelTest, ResolveThreadCountClampsNonPositiveToDefault) {
  SetDefaultThreadCount(5);
  EXPECT_EQ(ResolveThreadCount(2), 2);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  // Accidental negatives (e.g. an uninitialized BatchOptions::num_threads
  // sentinel) clamp to the default instead of flowing into thread math.
  EXPECT_EQ(ResolveThreadCount(-1), 5);
  EXPECT_EQ(ResolveThreadCount(-100), 5);
  SetDefaultThreadCount(0);
}

TEST(ParallelTest, ShardsSplitSmallRangesWithoutACutoff) {
  // Coarse items: three of them still get three threads, where
  // ParallelFor's small-n cutoff would run them inline.
  std::vector<std::thread::id> ran_on(3);
  std::vector<int> touched(3, 0);
  ParallelForShards(3, 4, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ran_on[i] = std::this_thread::get_id();
      ++touched[i];
    }
  });
  EXPECT_EQ(touched, std::vector<int>({1, 1, 1}));
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_NE(ran_on[1], ran_on[2]);
  // One thread requested: one inline shard.
  int calls = 0;
  ParallelForShards(5, 1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
    EXPECT_EQ(std::this_thread::get_id(), ran_on[0]);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, NestedLoopsRunInlineOnTheWorker) {
  SetDefaultThreadCount(4);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> inner_left_thread{false};
  ParallelForShards(4, 4, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const std::thread::id outer = std::this_thread::get_id();
      const auto check = [&] {
        if (std::this_thread::get_id() != outer) inner_left_thread = true;
      };
      ParallelFor(5000, [&](int64_t b, int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 5000);
        check();
        ++inner_calls;
      });
      ParallelForShards(8, 4, [&](int64_t, int64_t) {
        check();
        ++inner_calls;
      });
      ParallelForEach(2000, [&](int64_t, int thread_id) {
        EXPECT_EQ(thread_id, 0);
        check();
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);
  EXPECT_FALSE(inner_left_thread.load());
  // Outside any loop, a loop splits again.
  std::atomic<int> shards{0};
  ParallelForShards(4, 4, [&](int64_t, int64_t) { ++shards; });
  EXPECT_EQ(shards.load(), 4);
  SetDefaultThreadCount(0);
}

TEST(ParallelTest, ResultsMatchSequential) {
  constexpr int64_t kN = 100000;
  std::vector<double> values(kN);
  for (int64_t i = 0; i < kN; ++i) values[i] = 0.5 * i;
  std::vector<double> out(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) out[i] = values[i] * 2.0;
  });
  for (int64_t i = 0; i < kN; i += 997) EXPECT_DOUBLE_EQ(out[i], values[i] * 2);
}

}  // namespace
}  // namespace resinfer
