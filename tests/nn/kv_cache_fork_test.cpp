// Forked KvCache: blocks borrowed from a shared snapshot + an owned tail.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/kv_cache.hpp"

namespace ft2 {
namespace {

/// Fills `n` positions of a 1-block cache with rows [p, p, ..] = p.
void fill(KvCache& cache, std::size_t n, std::size_t d) {
  for (std::size_t p = cache.length(); p < n; ++p) {
    const std::vector<float> row(d, static_cast<float>(p));
    cache.store(0, p, row, row);
    cache.advance();
  }
}

TEST(KvCacheFork, PrefixCopyIsCompact) {
  KvCache cache(1, /*max_seq=*/16, /*d_model=*/4);
  fill(cache, 5, 4);
  const KvCache copy = cache.prefix_copy(3);
  EXPECT_EQ(copy.length(), 3u);
  EXPECT_EQ(copy.max_seq(), 3u);  // rows beyond the copy are not allocated
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(copy.key(0, p)[0], static_cast<float>(p));
    EXPECT_EQ(copy.value(0, p)[3], static_cast<float>(p));
  }
  // Block-granular: one kBlockRows-row block of keys + values.
  EXPECT_EQ(copy.memory_bytes(), 2 * KvCache::kBlockRows * 4 * sizeof(float));
}

TEST(KvCacheFork, ForkReadsPrefixAndAppendsTail) {
  KvCache base(1, 16, 4);
  fill(base, 6, 4);
  const auto prefix =
      std::make_shared<const KvCache>(base.prefix_copy(base.length()));

  KvCache fork = KvCache::forked(prefix, /*prefix_len=*/4, /*tail_rows=*/3);
  EXPECT_TRUE(fork.forked());
  EXPECT_EQ(fork.length(), 4u);
  EXPECT_EQ(fork.max_seq(), 7u);
  // Block-granular: no block is held until a tail store copies one.
  EXPECT_EQ(fork.memory_bytes(), 0u);

  // Prefix rows resolve through the shared cache; stores continue from the
  // fork point as if the prefix had been computed in place.
  EXPECT_EQ(fork.key(0, 2)[0], 2.0f);
  const std::vector<float> row(4, 40.0f);
  fork.store(0, 4, row, row);
  fork.advance();
  EXPECT_EQ(fork.length(), 5u);
  EXPECT_EQ(fork.key(0, 3)[0], 3.0f);   // still the prefix value
  EXPECT_EQ(fork.key(0, 4)[0], 40.0f);  // the tail write

  // Two forks of the same prefix are independent.
  KvCache other = KvCache::forked(prefix, 4, 3);
  const std::vector<float> row2(4, 99.0f);
  other.store(0, 4, row2, row2);
  other.advance();
  EXPECT_EQ(fork.key(0, 4)[0], 40.0f);
  EXPECT_EQ(other.key(0, 4)[0], 99.0f);
}

TEST(KvCacheFork, ZeroTailForkIsValid) {
  // A fork at the last executed boundary owns no rows at all (clamped
  // campaign forks run zero forwards).
  KvCache base(1, 8, 2);
  fill(base, 4, 2);
  const auto prefix =
      std::make_shared<const KvCache>(base.prefix_copy(4));
  const KvCache fork = KvCache::forked(prefix, 4, 0);
  EXPECT_EQ(fork.length(), 4u);
  EXPECT_EQ(fork.max_seq(), 4u);
  EXPECT_EQ(fork.memory_bytes(), 0u);
  EXPECT_EQ(fork.key(0, 3)[1], 3.0f);
}

/// A snapshot in a caller-owned pool of 4-row blocks, so tests can watch
/// the snapshot pool's block accounting while forks read it.
std::shared_ptr<KvCache> pooled_snapshot(KvBlockPool& pool, std::size_t n) {
  auto snap = std::make_shared<KvCache>(KvCache::paged(pool, 4 * n));
  EXPECT_TRUE(snap->reserve_rows(n));
  fill(*snap, n, pool.d_model());
  return snap;
}

TEST(KvCacheFork, MidBlockForkCopiesTheBorrowedBlockOnFirstStore) {
  KvBlockPool pool(/*n_layers=*/1, /*d_model=*/4, /*total_blocks=*/4,
                   /*block_rows=*/4);
  const std::shared_ptr<KvCache> snap = pooled_snapshot(pool, 6);
  const std::vector<KvBlockPool::BlockId> snap_table = snap->block_table();
  ASSERT_EQ(snap_table.size(), 2u);
  ASSERT_EQ(pool.used_blocks(), 2u);

  // Position 5 splits block 1: both forks borrow blocks 0 and 1 without
  // taking a reference on them.
  KvCache a = KvCache::forked(snap, 5, /*tail_rows=*/4);
  KvCache b = KvCache::forked(snap, 5, /*tail_rows=*/4);
  EXPECT_EQ(a.block_table(), snap_table);
  EXPECT_EQ(a.memory_bytes(), 0u);
  EXPECT_EQ(pool.ref_count(snap_table[1]), 1u);

  // The first tail store copies borrowed block 1 into the fork's own pool.
  const std::vector<float> ra(4, 50.0f);
  const std::vector<float> rb(4, 60.0f);
  a.store(0, 5, ra, ra);
  a.advance();
  b.store(0, 5, rb, rb);
  b.advance();
  EXPECT_EQ(a.memory_bytes(), pool.block_bytes());
  EXPECT_EQ(a.key(0, 4)[0], 4.0f);  // copied with the block
  EXPECT_EQ(a.key(0, 5)[0], 50.0f);
  EXPECT_EQ(b.key(0, 5)[0], 60.0f);

  // The snapshot's rows and its pool's accounting never change.
  EXPECT_EQ(pool.used_blocks(), 2u);
  EXPECT_EQ(pool.ref_count(snap_table[0]), 1u);
  EXPECT_EQ(pool.ref_count(snap_table[1]), 1u);
  EXPECT_EQ(snap->block_table(), snap_table);
  for (std::size_t p = 0; p < 6; ++p) {
    EXPECT_EQ(snap->key(0, p)[0], static_cast<float>(p));
  }

  // The copy is private from now on; crossing into block 2 maps a fresh
  // block of the fork's own pool. The other fork stays independent.
  a.store(0, 6, ra, ra);
  a.advance();
  EXPECT_EQ(a.memory_bytes(), pool.block_bytes());
  fill(a, 9, 4);
  EXPECT_EQ(a.memory_bytes(), 2 * pool.block_bytes());
  EXPECT_EQ(a.key(0, 8)[0], 8.0f);
  EXPECT_EQ(b.key(0, 5)[0], 60.0f);
  EXPECT_EQ(b.length(), 6u);
  EXPECT_EQ(pool.used_blocks(), 2u);
}

TEST(KvCacheFork, ZeroTailForkOwnsNoBlock) {
  KvBlockPool pool(1, 4, /*total_blocks=*/2, /*block_rows=*/4);
  std::shared_ptr<KvCache> snap = pooled_snapshot(pool, 6);
  const KvBlockPool::BlockId split = snap->block_table()[1];

  auto fork = std::make_unique<KvCache>(KvCache::forked(snap, 6, 0));
  EXPECT_EQ(fork->memory_bytes(), 0u);
  EXPECT_EQ(pool.used_blocks(), 2u);
  EXPECT_EQ(pool.ref_count(split), 1u);

  // The fork keeps the snapshot's blocks alive after every other holder
  // lets go, and releases them with its last reference.
  snap.reset();
  EXPECT_EQ(fork->key(0, 5)[0], 5.0f);
  EXPECT_EQ(pool.used_blocks(), 2u);
  fork.reset();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

}  // namespace
}  // namespace ft2
