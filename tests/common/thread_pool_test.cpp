#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace ft2 {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadInlineMode) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // inline mode spawns no workers
  int sum = 0;
  pool.parallel_for(5, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(3, 3, [&](std::size_t) { called = true; });
  pool.parallel_for(5, 2, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 31) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 64, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPool, LargeRangeChunking) {
  ThreadPool pool(7);
  std::vector<std::atomic<char>> seen(100001);
  pool.parallel_for(1, 100001, [&](std::size_t i) { seen[i] = 1; });
  std::size_t count = 0;
  for (std::size_t i = 1; i < seen.size(); ++i) count += seen[i] ? 1 : 0;
  EXPECT_EQ(count, 100000u);
}

/// Overwrites the stack below the caller's frame — where a just-returned
/// parallel_for kept its completion mutex and condvar — so a worker that
/// still touches them meets garbage rather than the identical objects the
/// next call would rebuild in the same place.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[4096];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

// Regression for the completion race: the last chunk used to decrement the
// remaining count outside the completion lock, so the caller could return —
// destroying its stack-held mutex and condvar — while that worker was still
// about to lock and notify them; the bug showed as a crash, a glibc mutex
// assertion or a hang. The window is narrow: many back-to-back calls hit it
// mostly when workers get preempted, so the PoolContention ctest repeats
// this suite at FT2_THREADS=4 alongside the rest of the tier-1 load.
TEST(ThreadPool, BackToBackParallelForCallsComplete) {
  ThreadPool pool(4);
  std::size_t total = 0;
  for (std::size_t call = 0; call < 100000; ++call) {
    std::atomic<std::size_t> hits{0};
    pool.parallel_for(0, 4, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    total += hits.load();
    scribble_stack();
  }
  EXPECT_EQ(total, 400000u);
}

}  // namespace
}  // namespace ft2
