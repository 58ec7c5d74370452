#include "nn/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace ft2 {

namespace {

std::vector<std::size_t> shape2(std::size_t rows, std::size_t cols) {
  return {rows, cols};
}

/// Inline-execution pool for single-row calls: fanning one row's handful
/// of column tiles out to workers costs more than it saves at these model
/// widths, so a one-row forward (and a one-row LM head) stays on the
/// calling thread.
ThreadPool& inline_pool() {
  static ThreadPool pool(1);
  return pool;
}

}  // namespace

Workspace::Workspace(const ModelConfig& config, std::size_t chunk_capacity)
    : x(shape2(std::max<std::size_t>(chunk_capacity, 1), config.d_model)),
      h(x.shape()),
      q(x.shape()),
      k(x.shape()),
      v(x.shape()),
      attn_out(x.shape()),
      o(x.shape()),
      f1(shape2(x.dim(0), config.d_ff)),
      f_up(f1.shape()),
      act(f1.shape()),
      f2(x.shape()),
      scores(shape2(x.dim(0), config.max_seq)),
      final_h(x.shape()),
      logits(shape2(x.dim(0), config.vocab_size)),
      kv_rows(2 * config.max_seq) {}

void Workspace::ensure_chunk_capacity(const ModelConfig& config,
                                      std::size_t rows) {
  if (rows <= chunk_capacity()) return;
  *this = Workspace(config, rows);
}

TransformerLM::TransformerLM(ModelConfig config, ModelWeights weights)
    : config_(std::move(config)), weights_(std::move(weights)) {
  FT2_CHECK(weights_.blocks.size() == config_.n_blocks);
  repack();
}

void TransformerLM::repack() {
  packed_ = PackedDecodeWeights(config_, weights_);
}

void TransformerLM::set_linear_weight(const LayerSite& site, std::size_t row,
                                      std::size_t col, float value) {
  LinearWeights& lw = linear_at(weights_, config_, site);
  FT2_CHECK(row < lw.w.dim(0) && col < lw.w.dim(1));
  lw.w.at(row, col) = value;
  // The packed block mirrors the dense one member for member.
  BlockWeights& blk = weights_.blocks[static_cast<std::size_t>(site.block)];
  PackedDecodeWeights::Block& pb =
      packed_.blocks[static_cast<std::size_t>(site.block)];
  const std::pair<const LinearWeights*, PackedLinear*> members[] = {
      {&blk.q, &pb.q},     {&blk.k, &pb.k},   {&blk.v, &pb.v},
      {&blk.o, &pb.o},     {&blk.fc1, &pb.fc1}, {&blk.up, &pb.up},
      {&blk.fc2, &pb.fc2}};
  for (const auto& [dense, packed] : members) {
    if (dense == &lw) packed->at(row, col) = value;
  }
}

void TransformerLM::apply_norm_row(const NormWeights& nw,
                                   std::span<const float> in,
                                   std::span<float> out) const {
  if (config_.norm == NormKind::kLayerNorm) {
    layernorm_row(in, nw.gamma.span(), nw.beta.span(), config_.norm_eps, out);
  } else {
    rmsnorm_row(in, nw.gamma.span(), config_.norm_eps, out);
  }
}

/// One segment of a forward call: `tokens` at positions [pos0, pos0 + n)
/// of one sequence, which owns `cache`, `hooks` and `logits`. A segment's
/// rows sit contiguously in the call's activation matrix, segments in call
/// order.
struct RowSegment {
  std::span<const int> tokens;
  std::size_t pos0 = 0;
  KvCache* cache = nullptr;
  const HookChain* hooks = nullptr;
  bool first_token_phase = false;
  std::span<float> logits;  ///< LM head of the last row; empty = skipped
};

/// State of one forward_rows call, shared by its attention, MLP and
/// linear helpers.
struct ForwardPass {
  std::span<const RowSegment> segs;
  std::size_t rows = 0;  ///< total over segs
  const ModelConfig& config;
  const ExecConfig& exec;
  ThreadPool& pool;  ///< inline for a one-row call
  const PackedDecodeWeights& packed;
  Workspace& ws;
};

namespace {

inline void maybe_quantize(std::span<float> v, bool fp16) {
  if (fp16) quantize_span_f16(v);
}

/// Calls fn(segment, i, r) for row i of each segment, r counting rows
/// across the call.
template <typename Fn>
void for_each_row(std::span<const RowSegment> segs, Fn&& fn) {
  std::size_t r = 0;
  for (const RowSegment& s : segs) {
    for (std::size_t i = 0; i < s.tokens.size(); ++i, ++r) fn(s, i, r);
  }
}

/// Fusion plan for one hook dispatch: whether any store-epilogue work runs
/// in the kernel (tensor/dispatch.hpp) and which hook, if any, supplied
/// the protection half.
struct FusedPlan {
  bool active = false;          ///< any fused work (quantize and/or protect)
  OutputHook* provider = nullptr;  ///< first hook, when it accepted fusion
  KernelEpilogue epi;
};

/// Negotiates the fused store epilogue for one dispatch. Fusion covers the
/// engine's own FP16 quantize pass plus — when the chain's FIRST hook
/// accepts plan_fused — the protection sweep. Chains led by a non-fusing
/// hook (e.g. a campaign's fault injector, which must corrupt values
/// BEFORE protection sees them), chunked-accumulation mode, and the
/// FT2_FUSED_EPILOGUE=0 kill switch all fall back to the legacy two-pass
/// path; results are bit-identical either way.
inline FusedPlan plan_output_fusion(const HookChain& hooks,
                                    const HookContext& ctx,
                                    const ExecConfig& exec) {
  FusedPlan plan;
  if (exec.chunked_accum || !fused_epilogue_enabled()) return plan;
  plan.epi.quantize = exec.fp16;
  OutputHook* first = hooks.first_hook();
  if (first != nullptr && first->plan_fused(ctx, plan.epi)) {
    plan.provider = first;
  }
  plan.active = plan.epi.quantize || plan.provider != nullptr;
  return plan;
}

/// Hook dispatch of a span whose planned epilogue already ran: the
/// provider absorbs its fused work and the rest of the chain runs, or,
/// with no provider, the whole chain runs.
inline void dispatch_planned(const FusedPlan& plan, const EpilogueTally& tally,
                             const HookContext& ctx, const HookChain& hooks,
                             std::span<float> values) {
  if (plan.provider != nullptr) {
    plan.provider->absorb_fused(ctx, values, plan.epi, tally);
    hooks.dispatch_tail(ctx, values);
  } else {
    hooks.dispatch(ctx, values);
  }
}

/// Applies a negotiated plan to an already-computed span in one sweep, then
/// completes hook dispatch. With no active plan this is the legacy quantize
/// + full dispatch.
inline void finish_output(std::span<float> values, const HookContext& ctx,
                          const HookChain& hooks, const ExecConfig& exec) {
  const FusedPlan plan = plan_output_fusion(hooks, ctx, exec);
  EpilogueTally tally;
  if (plan.active) {
    active_kernel_ops().epilogue_span(
        values.data(), values.size(), 0, plan.epi,
        plan.provider != nullptr ? &tally : nullptr);
  } else {
    maybe_quantize(values, exec.fp16);
  }
  dispatch_planned(plan, tally, ctx, hooks, values);
}

/// The hook context of segment `s`'s rows at `site`.
inline HookContext segment_context(const RowSegment& s, LayerSite site,
                                   std::size_t width) {
  return HookContext{site, s.pos0, s.first_token_phase, s.tokens.size(),
                     width};
}

/// Output finish of `out`'s first p.rows rows, one dispatch per segment in
/// segment order, each carrying that segment's [rows x width] span.
void finish_segments(const ForwardPass& p, Tensor& out, LayerSite site) {
  const std::size_t width = out.dim(1);
  float* row0 = out.data();
  for (const RowSegment& s : p.segs) {
    const std::size_t n = s.tokens.size() * width;
    finish_output({row0, n}, segment_context(s, site, width), *s.hooks,
                  p.exec);
    row0 += n;
  }
}

/// One linear layer over every row of the call as ONE GEMM, then the
/// site's output finish per segment. A single segment fuses the
/// quantize/protect epilogue into the GEMM store; several segments carry
/// independent hook chains, so each is swept after the GEMM instead.
/// Per-element accumulation order never depends on the row count.
void run_linear(const ForwardPass& p, const LinearWeights& lw,
                const PackedLinear& pl, const Tensor& in, Tensor& out,
                int block, LayerKind kind) {
  const LayerSite site{block, kind};
  if (p.exec.chunked_accum || p.segs.size() > 1) {
    if (p.exec.chunked_accum) {
      linear_forward_span(in, p.rows, lw.w, lw.bias_span(), out,
                          /*chunked_accum=*/true, p.pool);
    } else {
      linear_forward_span_packed(in, p.rows, pl, out, p.pool);
    }
    finish_segments(p, out, site);
    return;
  }
  const RowSegment& s = p.segs[0];
  const HookContext ctx = segment_context(s, site, out.dim(1));
  const FusedPlan plan = plan_output_fusion(*s.hooks, ctx, p.exec);
  EpilogueTally tally;
  linear_forward_span_packed(in, p.rows, pl, out, p.pool,
                             plan.active ? &plan.epi : nullptr,
                             plan.provider != nullptr ? &tally : nullptr);
  const std::span<float> view{out.data(), p.rows * out.dim(1)};
  if (!plan.active) maybe_quantize(view, p.exec.fp16);
  dispatch_planned(plan, tally, ctx, *s.hooks, view);
}

/// Causal attention of call row `r` over its own sequence's cache
/// positions [0, pos], reading the K/V rows its segment resolved into
/// ws.kv_rows. The loop order is fixed, so the row comes out the same
/// whichever task computes it.
void attend_row(const ForwardPass& p, std::size_t r) {
  std::size_t i = r;
  std::size_t seg = 0;
  while (i >= p.segs[seg].tokens.size()) i -= p.segs[seg++].tokens.size();
  const std::size_t max_seq = p.config.max_seq;
  const float* const* keys = p.ws.kv_rows.data() + seg * 2 * max_seq;
  const float* const* values = keys + max_seq;
  const std::size_t len = p.segs[seg].pos0 + i + 1;
  const std::size_t n_heads = p.config.n_heads;
  const std::size_t head_dim = p.config.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool fp16 = p.exec.fp16;
  const KernelOps& ops = active_kernel_ops();
  Workspace& ws = p.ws;
  auto out = ws.attn_out.row(r);
  std::fill(out.begin(), out.end(), 0.0f);
  const auto scores = ws.scores.row(r).subspan(0, len);
  for (std::size_t hh = 0; hh < n_heads; ++hh) {
    const std::size_t off = hh * head_dim;
    ops.attn_scores(ws.q.row(r).data() + off, keys, off, len, head_dim, scale,
                    scores.data());
    maybe_quantize(scores, fp16);
    softmax(scores);
    maybe_quantize(scores, fp16);
    ops.attn_value_sum(scores.data(), values, off, len, head_dim,
                       out.data() + off);
  }
  maybe_quantize(out, fp16);
}

}  // namespace

void TransformerLM::attention(const ForwardPass& p,
                              std::size_t block_idx) const {
  const BlockWeights& blk = weights_.blocks[block_idx];
  const PackedDecodeWeights::Block& pb = p.packed.blocks[block_idx];
  const int b = static_cast<int>(block_idx);
  Workspace& ws = p.ws;
  run_linear(p, blk.q, pb.q, ws.h, ws.q, b, LayerKind::kQProj);
  run_linear(p, blk.k, pb.k, ws.h, ws.k, b, LayerKind::kKProj);
  run_linear(p, blk.v, pb.v, ws.h, ws.v, b, LayerKind::kVProj);

  // Every row's K/V lands in its cache before any attention row runs: a
  // prefill row attends over earlier rows of its own segment. Hooks have
  // already run, so the stored values are exactly what a one-row call
  // stores for that position.
  const bool rotary = config_.position == PositionKind::kRotary;
  for_each_row(p.segs, [&](const RowSegment& s, std::size_t i,
                           std::size_t r) {
    const std::size_t pos = s.pos0 + i;
    if (rotary) {
      rope_apply(ws.q.row(r), config_.n_heads, config_.head_dim(), pos,
                 config_.rope_theta);
      rope_apply(ws.k.row(r), config_.n_heads, config_.head_dim(), pos,
                 config_.rope_theta);
      maybe_quantize(ws.q.row(r), p.exec.fp16);
      maybe_quantize(ws.k.row(r), p.exec.fp16);
    }
    s.cache->store(block_idx, pos, ws.k.row(r), ws.v.row(r));
  });

  // Each segment resolves its K/V rows for this block once (after the
  // stores, which may move a copy-on-write block); its attention rows read
  // prefixes of them.
  for (std::size_t si = 0; si < p.segs.size(); ++si) {
    const RowSegment& s = p.segs[si];
    const float** keys = ws.kv_rows.data() + si * 2 * config_.max_seq;
    const float** values = keys + config_.max_seq;
    for (std::size_t pos = 0; pos < s.pos0 + s.tokens.size(); ++pos) {
      keys[pos] = s.cache->key(block_idx, pos).data();
      values[pos] = s.cache->value(block_idx, pos).data();
    }
  }

  // One independent task per row; each reads only its own sequence's cache.
  const auto attend = [&p](std::size_t r) { attend_row(p, r); };
  p.pool.parallel_for(0, p.rows, std::ref(attend));

  run_linear(p, blk.o, pb.o, ws.attn_out, ws.o, b, LayerKind::kOutProj);
}

void TransformerLM::mlp(const ForwardPass& p, std::size_t block_idx) const {
  const BlockWeights& blk = weights_.blocks[block_idx];
  const PackedDecodeWeights::Block& pb = p.packed.blocks[block_idx];
  const int b = static_cast<int>(block_idx);
  const bool llama = config_.arch == ArchFamily::kLlama;
  Workspace& ws = p.ws;
  const std::size_t n = p.rows * config_.d_ff;
  const std::span<float> act{ws.act.data(), n};

  run_linear(p, blk.fc1, pb.fc1, ws.h, ws.f1, b,
             llama ? LayerKind::kGateProj : LayerKind::kFc1);
  if (llama) {
    run_linear(p, blk.up, pb.up, ws.h, ws.f_up, b, LayerKind::kUpProj);
  }
  std::copy_n(ws.f1.data(), n, ws.act.data());
  if (llama) {
    silu(act);
  } else if (config_.activation == Activation::kRelu) {
    relu(act);
  } else {
    gelu(act);
  }
  finish_segments(p, ws.act, LayerSite{b, LayerKind::kMlpAct});
  if (llama) {
    mul_inplace(act, {ws.f_up.data(), n});
    maybe_quantize(act, p.exec.fp16);
  }
  run_linear(p, blk.fc2, pb.fc2, ws.act, ws.f2, b,
             llama ? LayerKind::kDownProj : LayerKind::kFc2);
}

void TransformerLM::forward_rows(std::span<const RowSegment> segs,
                                 const ExecConfig& exec, Workspace& ws,
                                 const PackedDecodeWeights& packed) const {
  const bool fp16 = exec.fp16;
  std::size_t rows = 0;
  for (const RowSegment& s : segs) {
    FT2_CHECK(!s.tokens.empty());
    FT2_CHECK(s.cache != nullptr && s.hooks != nullptr);
    FT2_CHECK_MSG(s.cache->length() == s.pos0,
                  "cache length " << s.cache->length() << " != pos "
                                  << s.pos0);
    FT2_CHECK(s.pos0 + s.tokens.size() <= config_.max_seq);
    FT2_CHECK(s.logits.empty() || s.logits.size() == config_.vocab_size);
    for (const int token : s.tokens) {
      FT2_CHECK(token >= 0 &&
                static_cast<std::size_t>(token) < config_.vocab_size);
    }
    rows += s.tokens.size();
  }
  ws.ensure_chunk_capacity(config_, rows);
  const std::size_t kv_rows = 2 * config_.max_seq * segs.size();
  if (ws.kv_rows.size() < kv_rows) ws.kv_rows.resize(kv_rows);
  ThreadPool& pool = rows == 1              ? inline_pool()
                     : exec.pool != nullptr ? *exec.pool
                                            : ThreadPool::global();
  const ForwardPass p{segs, rows, config_, exec, pool, packed, ws};

  // Embedding (+ learned positions for OPT).
  for_each_row(segs, [&](const RowSegment& s, std::size_t i, std::size_t r) {
    auto x = ws.x.row(r);
    auto emb = weights_.tok_emb.row(static_cast<std::size_t>(s.tokens[i]));
    std::copy(emb.begin(), emb.end(), x.begin());
    if (config_.position == PositionKind::kLearned) {
      add_inplace(x, weights_.pos_emb.row(s.pos0 + i));
    }
    maybe_quantize(x, fp16);
  });

  const auto norm_rows = [&](const NormWeights& nw) {
    for (std::size_t r = 0; r < rows; ++r) {
      apply_norm_row(nw, ws.x.row(r), ws.h.row(r));
      maybe_quantize(ws.h.row(r), fp16);
    }
  };
  const auto add_rows = [&](const Tensor& y) {
    for (std::size_t r = 0; r < rows; ++r) {
      add_inplace(ws.x.row(r), y.row(r));
      maybe_quantize(ws.x.row(r), fp16);
    }
  };
  for (std::size_t bi = 0; bi < config_.n_blocks; ++bi) {
    const auto& blk = weights_.blocks[bi];
    norm_rows(blk.norm1);
    attention(p, bi);
    if (config_.parallel_block) {
      // GPT-J: MLP reads the same normed input; single residual add.
      mlp(p, bi);
      for (std::size_t r = 0; r < rows; ++r) {
        add_inplace(ws.x.row(r), ws.o.row(r));
        add_inplace(ws.x.row(r), ws.f2.row(r));
        maybe_quantize(ws.x.row(r), fp16);
      }
    } else {
      add_rows(ws.o);
      norm_rows(blk.norm2);
      mlp(p, bi);
      add_rows(ws.f2);
    }
  }
  for (const RowSegment& s : segs) s.cache->advance(s.tokens.size());

  // LM head, only for the last row of each segment that asks for logits
  // (intermediate prefill logits are never observed). It is never chunked,
  // quantized or hooked; its rows are gathered into one GEMM.
  std::size_t heads = 0;
  std::size_t last = 0;
  for (const RowSegment& s : segs) {
    last += s.tokens.size();
    if (s.logits.empty()) continue;
    apply_norm_row(weights_.final_norm, ws.x.row(last - 1),
                   ws.final_h.row(heads));
    maybe_quantize(ws.final_h.row(heads), fp16);
    ++heads;
  }
  if (heads == 0) return;
  linear_forward_span_packed(ws.final_h, heads, packed.lm_head, ws.logits,
                             heads == 1 ? inline_pool() : pool);
  std::size_t h = 0;
  for (const RowSegment& s : segs) {
    if (s.logits.empty()) continue;
    const auto row = ws.logits.row(h++);
    std::copy(row.begin(), row.end(), s.logits.begin());
  }
}

void TransformerLM::forward_position(int token, std::size_t pos,
                                     KvCache& cache, const HookChain& hooks,
                                     const ExecConfig& exec,
                                     bool first_token_phase, Workspace& ws,
                                     std::span<float> logits) const {
  FT2_CHECK(logits.size() == config_.vocab_size);
  const RowSegment seg{{&token, 1}, pos, &cache, &hooks, first_token_phase,
                       logits};
  forward_rows({&seg, 1}, exec, ws, packed_);
}

void TransformerLM::forward_span(std::span<const int> tokens, std::size_t pos0,
                                 KvCache& cache, const HookChain& hooks,
                                 const ExecConfig& exec,
                                 bool first_token_phase, Workspace& ws,
                                 std::span<float> logits) const {
  const RowSegment seg{tokens, pos0, &cache, &hooks, first_token_phase,
                       logits};
  forward_rows({&seg, 1}, exec, ws, packed_);
}

void TransformerLM::forward_batch(std::span<DecodeSlot> slots,
                                  const ExecConfig& exec, Workspace& ws,
                                  const PackedDecodeWeights* packed) const {
  if (slots.empty()) return;
  const PackedDecodeWeights& pw = packed != nullptr ? *packed : packed_;
  FT2_CHECK_MSG(pw.blocks.size() == config_.n_blocks,
                "packed weights built for a different model");
  std::vector<RowSegment> segs;
  segs.reserve(slots.size());
  for (DecodeSlot& s : slots) {
    FT2_CHECK(s.logits.size() == config_.vocab_size);
    segs.push_back({{&s.token, 1}, s.pos, s.cache, s.hooks,
                    /*first_token_phase=*/false, s.logits});
  }
  forward_rows(segs, exec, ws, pw);
}

PackedDecodeWeights::PackedDecodeWeights(const TransformerLM& model)
    : PackedDecodeWeights(model.config(), model.weights()) {}

PackedDecodeWeights::PackedDecodeWeights(const ModelConfig& config,
                                         const ModelWeights& w) {
  const bool llama = config.arch == ArchFamily::kLlama;
  blocks.reserve(config.n_blocks);
  for (std::size_t bi = 0; bi < config.n_blocks; ++bi) {
    const BlockWeights& blk = w.blocks[bi];
    Block p;
    p.q = PackedLinear(blk.q.w, blk.q.bias_span());
    p.k = PackedLinear(blk.k.w, blk.k.bias_span());
    p.v = PackedLinear(blk.v.w, blk.v.bias_span());
    p.o = PackedLinear(blk.o.w, blk.o.bias_span());
    p.fc1 = PackedLinear(blk.fc1.w, blk.fc1.bias_span());
    if (llama) p.up = PackedLinear(blk.up.w, blk.up.bias_span());
    p.fc2 = PackedLinear(blk.fc2.w, blk.fc2.bias_span());
    blocks.push_back(std::move(p));
  }
  lm_head = PackedLinear(w.lm_head.w, {});
}

InferenceSession::InferenceSession(const TransformerLM& model)
    : model_(model),
      cache_(model.config().n_blocks, 0, model.config().d_model),
      ws_(model.config()),
      logits_(model.config().vocab_size) {}

void InferenceSession::reset_cache(std::size_t prompt_len,
                                   const GenerateOptions& options) {
  const ModelConfig& config = model_.config();
  const std::size_t rows =
      std::min(config.max_seq, prompt_len + options.max_new_tokens);
  if (cache_.forked() || cache_.max_seq() < rows) {
    cache_ = KvCache(config.n_blocks, rows, config.d_model);
  }
  cache_.reset();
}

std::size_t run_prefill(const TransformerLM& model,
                        std::span<const int> prompt,
                        const GenerateOptions& options, KvCache& cache,
                        const HookChain& hooks, Workspace& ws,
                        std::span<float> logits) {
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  const std::size_t max_seq = model.config().max_seq;
  const std::size_t prompt_len = std::min(prompt.size(), max_seq);
  const std::size_t chunk =
      options.prefill_chunk == 0 ? prompt_len : options.prefill_chunk;
  std::size_t pos = 0;
  while (pos < prompt_len) {
    const std::size_t n = std::min(chunk, prompt_len - pos);
    // Logits are only needed from the chunk containing the last prompt
    // position; earlier chunks skip the LM head entirely.
    const bool last_chunk = pos + n == prompt_len;
    model.forward_span(prompt.subspan(pos, n), pos, cache, hooks, exec,
                       /*first_token_phase=*/true, ws,
                       last_chunk ? logits : std::span<float>{});
    pos += n;
  }
  return prompt_len;
}

int sample_from_logits(std::span<const float> logits, float temperature,
                       std::size_t top_k, Xoshiro256& rng) {
  const std::size_t vocab = logits.size();
  std::vector<std::size_t> order(vocab);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return logits[a] > logits[b];
  });
  const std::size_t k =
      top_k == 0 ? vocab : std::min(top_k, vocab);

  // Stable softmax over the candidate set at the given temperature.
  std::vector<double> probs(k);
  const double mx = static_cast<double>(logits[order[0]]);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double z =
        (static_cast<double>(logits[order[i]]) - mx) / temperature;
    probs[i] = std::exp(z);
    sum += probs[i];
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return static_cast<int>(order[0]);  // NaN-poisoned logits: fall back
  }
  double u = rng.uniform_double() * sum;
  for (std::size_t i = 0; i < k; ++i) {
    u -= probs[i];
    if (u <= 0.0) return static_cast<int>(order[i]);
  }
  return static_cast<int>(order[k - 1]);
}

void InferenceSession::decode_loop(
    const GenerateOptions& options, std::size_t first_step, std::size_t pos,
    Xoshiro256& sampler, GenerateResult& result,
    const std::function<bool(std::size_t)>& on_token,
    const std::function<void(std::size_t)>& after_forward) {
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  const std::size_t max_seq = model_.config().max_seq;
  std::span<float> logits{logits_.data(), logits_.size()};

  // Greedy by default; NaN-poisoned logits: argmax picks the first index
  // when all comparisons are false, which is deterministic (faithful
  // "garbage token" behaviour).
  for (std::size_t step = first_step; step < options.max_new_tokens; ++step) {
    const int next =
        options.temperature > 0.0f
            ? sample_from_logits(logits, options.temperature, options.top_k,
                                 sampler)
            : static_cast<int>(argmax(logits));
    if (options.eos_token >= 0 && next == options.eos_token) break;
    result.tokens.push_back(next);
    if (on_token && !on_token(step)) break;
    if (step + 1 == options.max_new_tokens || pos >= max_seq) {
      result.hit_max = true;
      break;
    }
    model_.forward_position(next, pos, cache_, hooks_, exec,
                            /*first_token_phase=*/false, ws_, logits);
    ++pos;
    ++result.positions_run;
    if (after_forward) after_forward(step);
  }
}

GenerateResult InferenceSession::generate(std::span<const int> prompt,
                                          const GenerateOptions& options) {
  FT2_CHECK(!prompt.empty());
  GenerateResult result;
  reset_cache(prompt.size(), options);
  GenerationScope scope(hooks_);

  std::span<float> logits{logits_.data(), logits_.size()};

  // Prefill: the "first token generation" phase, processed in blocked
  // chunks (bit-exact with the sequential path at any chunk size).
  const std::size_t pos =
      run_prefill(model_, prompt, options, cache_, hooks_, ws_, logits);
  result.positions_run = pos;

  Xoshiro256 sampler(options.sample_seed);
  decode_loop(options, 0, pos, sampler, result, {}, {});
  return result;
}

GenerateResult InferenceSession::generate_recorded(
    std::span<const int> prompt, const GenerateOptions& options,
    SessionSnapshot& snap,
    const std::function<void(std::size_t)>& on_boundary) {
  FT2_CHECK(!prompt.empty());
  GenerateResult result;
  reset_cache(prompt.size(), options);
  GenerationScope scope(hooks_);

  std::span<float> logits{logits_.data(), logits_.size()};
  const std::size_t pos =
      run_prefill(model_, prompt, options, cache_, hooks_, ws_, logits);
  result.positions_run = pos;

  snap = SessionSnapshot{};
  snap.prompt_len = pos;
  snap.options = options;
  if (on_boundary) on_boundary(0);

  Xoshiro256 sampler(options.sample_seed);
  decode_loop(
      options, 0, pos, sampler, result,
      /*on_token=*/
      [&](std::size_t) {
        snap.rng_at.push_back(sampler.state());
        return true;
      },
      /*after_forward=*/
      [&](std::size_t step) {
        if (on_boundary) on_boundary(step + 1);
      });
  scope.end();

  snap.result = result;
  // Retain only the rows the run actually stored (copy hygiene: no max_seq
  // slack travels with the snapshot).
  snap.cache = std::make_shared<const KvCache>(
      cache_.prefix_copy(cache_.length()));
  return result;
}

GenerateResult InferenceSession::resume_from(
    const SessionSnapshot& snap, std::size_t pos,
    const std::function<void()>& on_resume,
    const std::function<bool(std::size_t)>& hooks_rejoined) {
  FT2_CHECK(snap.valid());
  FT2_CHECK_MSG(pos >= snap.prompt_len && pos <= snap.last_boundary(),
                "fork position " << pos << " outside ["
                                 << snap.prompt_len << ", "
                                 << snap.last_boundary() << "]");
  const GenerateOptions& options = snap.options;
  const std::size_t s = pos - snap.prompt_len;
  const std::size_t max_seq = model_.config().max_seq;

  GenerateResult result;
  result.tokens.assign(snap.result.tokens.begin(),
                       snap.result.tokens.begin() +
                           static_cast<std::ptrdiff_t>(s + 1));
  result.positions_run = pos;  // prefill + decode forwards before the fork

  // O(tail) fork: rows [0, pos) are shared with the snapshot; the owned
  // tail covers exactly the forwards this continuation can still run.
  const std::size_t horizon =
      std::min(snap.prompt_len + options.max_new_tokens - 1, max_seq);
  cache_ = KvCache::forked(snap.cache, pos, horizon > pos ? horizon - pos : 0);

  GenerationScope scope(hooks_);
  if (on_resume) on_resume();

  Xoshiro256 sampler(options.sample_seed);
  sampler.set_state(snap.rng_at[s]);

  // Tail of the recorded run's iteration s: it ended either by hitting the
  // generation limit (no forward left to run) or with the forward at `pos`.
  if (s + 1 == options.max_new_tokens || pos >= max_seq) {
    result.hit_max = true;
    return result;
  }
  std::span<float> logits{logits_.data(), logits_.size()};
  const ExecConfig exec{options.fp16, options.chunked_accum, options.pool};
  model_.forward_position(result.tokens.back(), pos, cache_, hooks_, exec,
                          /*first_token_phase=*/false, ws_, logits);
  ++pos;
  ++result.positions_run;
  if (!hooks_rejoined) {
    decode_loop(options, s + 1, pos, sampler, result, {}, {});
    return result;
  }

  // Suffix reuse. At token `step` the session has just sampled from the
  // logits of the forward at position prompt_len + step - 1; rows before
  // that position are the snapshot's (shared, or compared at an earlier
  // step), so the rows that forward stored, the token and the RNG state
  // are all the session itself owns that could still differ.
  const KvCache& recorded = *snap.cache;
  const std::size_t row_bytes = model_.config().d_model * sizeof(float);
  const auto same_row = [row_bytes](std::span<const float> a,
                                    std::span<const float> b) {
    return std::memcmp(a.data(), b.data(), row_bytes) == 0;
  };
  bool diverged = false;
  decode_loop(
      options, s + 1, pos, sampler, result,
      /*on_token=*/
      [&](std::size_t step) {
        const std::size_t q = snap.prompt_len + step - 1;
        // Nothing left to skip: the recording ran no forward past here.
        if (diverged || q + 1 >= snap.result.positions_run) return true;
        diverged = result.tokens.back() != snap.result.tokens[step] ||
                   (options.temperature > 0.0f &&
                    sampler.state() != snap.rng_at[step]);
        for (std::size_t l = 0; l < model_.config().n_blocks && !diverged;
             ++l) {
          diverged = !same_row(cache_.key(l, q), recorded.key(l, q)) ||
                     !same_row(cache_.value(l, q), recorded.value(l, q));
        }
        if (diverged || !hooks_rejoined(step)) return true;
        result.tokens = snap.result.tokens;
        result.positions_run = snap.result.positions_run;
        result.hit_max = snap.result.hit_max;
        result.rejoined_at = step;
        return false;
      },
      {});
  return result;
}

}  // namespace ft2
