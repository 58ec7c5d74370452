// Per-layer key/value cache for incremental decoding, stored in the blocks
// of a KvBlockPool.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "nn/kv_pool.hpp"

namespace ft2 {

/// Stores keys and values (post-RoPE) for every processed position of every
/// transformer layer. Storage is always paged: position p lives in row
/// p % block_rows of the pool block named by block-table entry
/// p / block_rows. A table entry is {pool, block id}; caches differ only in
/// where their blocks come from:
///  * standalone (the constructor, TransformerLM::make_cache, sessions,
///    prefix_copy): a private pool of kBlockRows-row blocks with room for
///    max_seq rows, mapped as rows are stored. A cache with max_seq 0
///    allocates nothing;
///  * paged(pool, max_seq): blocks of a shared pool (the serve engine's),
///    mapped ahead of the stores by reserve_rows or adopted from another
///    sequence by adopt_shared_prefix;
///  * forked(base, len, tail): the first ceil(len / block_rows) entries
///    borrow base's blocks (a shared_ptr to base keeps them alive) and the
///    tail goes into a private pool. Forking is O(tail): the prefix is
///    never copied. The fault-injection campaign forks one fault-free run
///    into every trial this way.
///
/// One copy-on-write rule covers prefix sharing, cache copies and forks: a
/// store writes a block only when the block belongs to the cache's own
/// pool and has ref count 1. Any other store first copies the block into a
/// fresh block of the cache's own pool. A fork never touches the borrowed
/// pool's ref counts or free list, so every pool has a single owner and
/// concurrent forks of one snapshot only read it.
///
/// The attention kernels read rows through key()/value() and never see the
/// block table.
class KvCache {
 public:
  using BlockId = KvBlockPool::BlockId;
  /// Rows per block of a standalone cache's private pool.
  static constexpr std::size_t kBlockRows = 16;

  /// Standalone cache with room for `max_seq` rows of `n_layers` layers.
  KvCache(std::size_t n_layers, std::size_t max_seq, std::size_t d_model)
      : n_layers_(n_layers), max_seq_(max_seq), d_model_(d_model) {
    make_private_pool(blocks_for(max_seq));
  }

  /// Cache over the shared `pool`: no rows are held until reserve_rows /
  /// adopt_shared_prefix maps blocks. `max_seq` caps the logical length.
  static KvCache paged(KvBlockPool& pool, std::size_t max_seq) {
    KvCache out(pool.n_layers(), 0, pool.d_model());
    out.max_seq_ = max_seq;
    out.block_rows_ = pool.block_rows();
    out.pool_ = &pool;
    return out;
  }

  /// Fork of `base` at position `len`: rows [0, len) are read from base's
  /// blocks and `tail_rows` more rows can be appended. length() starts at
  /// `len`; store()/advance() continue from there exactly as if the prefix
  /// had been computed in place. A zero-tail fork owns no block.
  static KvCache forked(std::shared_ptr<const KvCache> base, std::size_t len,
                        std::size_t tail_rows) {
    FT2_CHECK(base != nullptr && len <= base->length_);
    KvCache out(base->n_layers_, 0, base->d_model_);
    out.block_rows_ = base->block_rows_;
    out.max_seq_ = len + tail_rows;
    out.length_ = len;
    // Tail blocks, plus the copy of a borrowed block the fork point splits.
    if (tail_rows > 0) {
      out.make_private_pool(out.blocks_for(len + tail_rows) -
                            len / out.block_rows_);
    }
    out.table_.assign(base->table_.begin(),
                      base->table_.begin() +
                          static_cast<std::ptrdiff_t>(out.blocks_for(len)));
    out.base_ = std::move(base);
    return out;
  }

  ~KvCache() { release_blocks(); }

  KvCache(KvCache&& other) noexcept { swap(other); }
  /// Copy or move assignment; the old contents are released.
  KvCache& operator=(KvCache other) noexcept {
    swap(other);
    return *this;
  }

  /// A copy of a paged cache maps the same blocks with an extra reference,
  /// so either side's next store into them copies first. A standalone
  /// cache's private pool is copied whole (pools stay single-owner).
  KvCache(const KvCache& other)
      : n_layers_(other.n_layers_),
        max_seq_(other.max_seq_),
        d_model_(other.d_model_),
        length_(other.length_),
        block_rows_(other.block_rows_),
        pool_(other.pool_),
        base_(other.base_),
        table_(other.table_) {
    if (other.owned_ != nullptr) {
      owned_ = std::make_shared<KvBlockPool>(*other.owned_);
      pool_ = owned_.get();
    }
    for (BlockRef& e : table_) {
      if (e.pool != other.pool_) continue;
      e.pool = pool_;
      if (owned_ == nullptr) pool_->add_ref(e.id);
    }
  }

  /// Standalone copy of the first `n` stored rows, sized to exactly those
  /// rows (block-rounded) — what a snapshot or a preemption swap-out needs
  /// to retain, without the source's max_seq slack.
  KvCache prefix_copy(std::size_t n) const {
    FT2_CHECK(n <= length_);
    KvCache out(n_layers_, n, d_model_);
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (std::size_t l = 0; l < n_layers_; ++l) {
        out.store(l, pos, key(l, pos), value(l, pos));
      }
    }
    out.length_ = n;
    return out;
  }

  /// True for caches created by forked(). Forked caches cannot be reset or
  /// re-prefilled from position 0 — make a fresh cache instead.
  bool forked() const { return base_ != nullptr; }

  /// Block ids of the table in position order, each in the pool its entry
  /// names (the shared pool, for a paged cache).
  std::vector<BlockId> block_table() const {
    std::vector<BlockId> ids;
    ids.reserve(table_.size());
    for (const BlockRef& e : table_) ids.push_back(e.id);
    return ids;
  }

  void reset() {
    FT2_ASSERT(!forked());
    release_blocks();
  }

  /// Returns every block to its pool and empties the cache; a fork also
  /// lets go of its base. The cache stays usable: the serve engine calls
  /// this when a request finishes or is preempted, and a paged cache can
  /// be refilled afterwards.
  void release_storage() {
    release_blocks();
    base_.reset();
  }

  std::size_t length() const { return length_; }
  std::size_t max_seq() const { return max_seq_; }

  /// Maps enough blocks that `n` more rows beyond length() have physical
  /// backing. All-or-nothing: on pool exhaustion nothing is allocated and
  /// false is returned (the scheduler evicts and retries).
  bool reserve_rows(std::size_t n) {
    FT2_CHECK_MSG(length_ + n <= max_seq_,
                  "reserve_rows past max_seq " << max_seq_);
    const std::size_t have = table_.size();
    BlockId b = KvBlockPool::kInvalidBlock;
    while (table_.size() < blocks_for(length_ + n)) {
      if (!pool_->try_alloc(b)) {
        for (; table_.size() > have; table_.pop_back()) {
          pool_->release(table_.back().id);
        }
        return false;
      }
      table_.push_back({pool_, b});
    }
    return true;
  }

  /// Adopts `blocks` of the shared pool (adding a reference to each) as
  /// this cache's first rows — the serve engine's copy-on-write prefix
  /// sharing. `rows` of K/V content become readable immediately and
  /// length() starts there; the cache must be empty. `rows` may end
  /// mid-block (a store into that block copies it first).
  void adopt_shared_prefix(std::span<const BlockId> blocks, std::size_t rows) {
    FT2_CHECK(pool_ != nullptr && table_.empty() && length_ == 0);
    FT2_CHECK(rows <= blocks.size() * block_rows_ && rows <= max_seq_);
    for (const BlockId b : blocks) {
      pool_->add_ref(b);
      table_.push_back({pool_, b});
    }
    length_ = rows;
  }

  /// Writes k/v of position `pos` for `layer`. Every layer stores a
  /// position, layer 0 first, before advance() is called.
  void store(std::size_t layer, std::size_t pos, std::span<const float> k,
             std::span<const float> v) {
    FT2_ASSERT(pos < max_seq_ && k.size() == d_model_ &&
               v.size() == d_model_);
    const std::size_t bi = pos / block_rows_;
    if (layer == 0) make_block_writable(bi);
    const std::size_t r = pos % block_rows_;
    const auto kd = pool_->key_row(layer, table_[bi].id, r);
    const auto vd = pool_->value_row(layer, table_[bi].id, r);
    std::copy(k.begin(), k.end(), kd.begin());
    std::copy(v.begin(), v.end(), vd.begin());
  }

  void advance() {
    FT2_ASSERT(length_ < max_seq_);
    ++length_;
  }

  /// Advances by `n` positions at once (blocked prefill stores a whole chunk
  /// of K/V rows before bumping the length).
  void advance(std::size_t n) {
    FT2_ASSERT(length_ + n <= max_seq_);
    length_ += n;
  }

  std::span<const float> key(std::size_t layer, std::size_t pos) const {
    const BlockRef& e = table_[pos / block_rows_];
    return e.pool->key_row(layer, e.id, pos % block_rows_);
  }
  std::span<const float> value(std::size_t layer, std::size_t pos) const {
    const BlockRef& e = table_[pos / block_rows_];
    return e.pool->value_row(layer, e.id, pos % block_rows_);
  }

  /// Bytes of the blocks this cache holds in its own pool. A fork's
  /// borrowed blocks count with the cache that owns them; a block shared
  /// by several paged caches is counted by each sharer (the serve engine
  /// deduplicates by block id when it reports resident bytes).
  std::size_t memory_bytes() const {
    std::size_t own = 0;
    for (const BlockRef& e : table_) own += e.pool == pool_ ? 1 : 0;
    return own == 0 ? 0 : own * pool_->block_bytes();
  }

 private:
  /// One block-table entry: a block of `pool`.
  struct BlockRef {
    const KvBlockPool* pool;
    BlockId id;
  };

  void swap(KvCache& o) noexcept {
    std::swap(n_layers_, o.n_layers_);
    std::swap(max_seq_, o.max_seq_);
    std::swap(d_model_, o.d_model_);
    std::swap(length_, o.length_);
    std::swap(block_rows_, o.block_rows_);
    owned_.swap(o.owned_);
    std::swap(pool_, o.pool_);
    base_.swap(o.base_);
    table_.swap(o.table_);
  }

  std::size_t blocks_for(std::size_t rows) const {
    return (rows + block_rows_ - 1) / block_rows_;
  }

  /// Also sizes the table for max_seq rows, so stores never allocate.
  void make_private_pool(std::size_t blocks) {
    if (blocks == 0) return;
    owned_ = std::make_shared<KvBlockPool>(n_layers_, d_model_, blocks,
                                           block_rows_);
    pool_ = owned_.get();
    table_.reserve(blocks_for(max_seq_));
  }

  /// Drops this cache's references (borrowed blocks hold none) and empties
  /// the table.
  void release_blocks() {
    for (const BlockRef& e : table_) {
      if (e.pool == pool_) pool_->release(e.id);
    }
    table_.clear();
    length_ = 0;
  }

  /// Maps block `bi` on the first store into it, and applies the
  /// copy-on-write rule. Called once per appended row (on layer 0's
  /// store), so every layer of the row lands in the same block.
  void make_block_writable(std::size_t bi) {
    FT2_ASSERT(bi <= table_.size());
    if (bi == table_.size()) {
      table_.push_back({pool_, alloc_block()});
      return;
    }
    BlockRef& e = table_[bi];
    if (e.pool == pool_ && pool_->ref_count(e.id) == 1) return;
    const BlockId fresh = alloc_block();
    pool_->copy_block(*e.pool, e.id, fresh);
    if (e.pool == pool_) pool_->release(e.id);
    e = {pool_, fresh};
  }

  BlockId alloc_block() {
    BlockId b = KvBlockPool::kInvalidBlock;
    FT2_CHECK_MSG(pool_ != nullptr && pool_->try_alloc(b),
                  "KvBlockPool exhausted on a store (reserve accounting bug "
                  "or pool sized below one sequence)");
    return b;
  }

  std::size_t n_layers_ = 0;
  std::size_t max_seq_ = 0;
  std::size_t d_model_ = 0;
  std::size_t length_ = 0;
  std::size_t block_rows_ = kBlockRows;
  /// Private pool of a standalone cache or a fork's tail (null otherwise).
  std::shared_ptr<KvBlockPool> owned_;
  /// The pool stores land in: owned_, or the shared pool of a paged cache.
  KvBlockPool* pool_ = nullptr;
  /// Fork only: the cache whose blocks the first entries borrow.
  std::shared_ptr<const KvCache> base_;
  std::vector<BlockRef> table_;
};

}  // namespace ft2
