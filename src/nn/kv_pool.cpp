#include "nn/kv_pool.hpp"

#include <algorithm>

namespace ft2 {

KvBlockPool::KvBlockPool(std::size_t n_layers, std::size_t d_model,
                         std::size_t total_blocks, std::size_t block_rows)
    : n_layers_(n_layers), d_model_(d_model), block_rows_(block_rows) {
  FT2_CHECK_MSG(n_layers > 0 && d_model > 0 && block_rows > 0,
                "degenerate KvBlockPool geometry");
  FT2_CHECK_MSG(total_blocks > 0, "KvBlockPool needs at least one block");
  keys_.reserve(n_layers);
  values_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    keys_.emplace_back(Tensor({total_blocks * block_rows, d_model}));
    values_.emplace_back(Tensor({total_blocks * block_rows, d_model}));
  }
  refs_.assign(total_blocks, 0);
  free_.reserve(total_blocks);
  // LIFO free list popping from the back: seed it in descending order so
  // the first allocations hand out blocks 0, 1, 2, ...
  for (std::size_t b = total_blocks; b > 0; --b) {
    free_.push_back(static_cast<BlockId>(b - 1));
  }
}

bool KvBlockPool::try_alloc(BlockId& out) {
  if (free_.empty()) return false;
  out = free_.back();
  free_.pop_back();
  FT2_ASSERT(refs_[out] == 0);
  refs_[out] = 1;
  return true;
}

void KvBlockPool::release(BlockId b) {
  FT2_ASSERT(b < refs_.size() && refs_[b] > 0);
  if (--refs_[b] == 0) free_.push_back(b);
}

void KvBlockPool::copy_block(const KvBlockPool& from, BlockId src,
                             BlockId dst) {
  FT2_ASSERT(from.n_layers_ == n_layers_ && from.d_model_ == d_model_ &&
             from.block_rows_ == block_rows_);
  FT2_ASSERT(src < from.refs_.size() && dst < refs_.size() && refs_[dst] > 0);
  const std::size_t n = block_rows_ * d_model_;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    const auto ks = from.keys_[l].span().subspan(src * n, n);
    const auto vs = from.values_[l].span().subspan(src * n, n);
    std::copy(ks.begin(), ks.end(), keys_[l].span().subspan(dst * n, n).begin());
    std::copy(vs.begin(), vs.end(),
              values_[l].span().subspan(dst * n, n).begin());
  }
}

}  // namespace ft2
