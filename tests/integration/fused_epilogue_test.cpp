// Fused-epilogue end-to-end equivalence: protected generation and full
// fault-injection campaigns must be bit-identical with the fused GEMM-store
// epilogue on and off. The fused path moves quantization and range
// restriction from post-GEMM sweeps into the kernel's store epilogue; this
// suite pins the "results never change" contract at the system level —
// tokens, per-kind protection stats, clip events, first-detect positions,
// protect.* counters, campaign outcomes and detection counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

/// Restores the fused switch and active tier on scope exit.
class FusedGuard {
 public:
  FusedGuard() : tier_(active_kernel_tier()), on_(fused_epilogue_enabled()) {}
  ~FusedGuard() {
    set_kernel_tier(tier_);
    set_fused_epilogue_enabled(on_);
  }

 private:
  KernelTier tier_;
  bool on_;
};

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 24;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 32;
  c.max_seq = 96;
  Xoshiro256 rng(77);
  return TransformerLM(c, init_weights(c, rng));
}

std::vector<int> test_prompt() {
  const auto gen = make_generator(DatasetKind::kSynthQA);
  Xoshiro256 rng(3);
  const Sample s = gen->generate(rng);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), s.prompt_tokens.begin(), s.prompt_tokens.end());
  return prompt;
}

/// Artificially tight bounds at every site of the model so a clean
/// generation clips constantly — the fused kernel's dirty-lane slow path
/// and event recording get exercised hard, not just the clean path.
BoundStore tight_bounds(const TransformerLM& model) {
  BoundStore bounds(model.config());
  for (std::size_t b = 0; b < model.config().n_blocks; ++b) {
    for (LayerKind k : model.config().block_layers()) {
      Bounds& site = bounds.at(LayerSite{static_cast<int>(b), k});
      site.lo = -0.01f;
      site.hi = 0.01f;
      site.typical = 0.0f;
    }
  }
  return bounds;
}

struct ProtectedRun {
  GenerateResult result;
  std::array<ProtectionStats, kLayerKindCount> kind_stats;
  std::vector<ClipEvent> clips;
  long long first_detect = -1;
  MetricsSnapshot metrics;
  std::size_t online_valid = 0;
};

ProtectedRun run_protected(const TransformerLM& model,
                           const std::string& scheme_name, bool fused) {
  FusedGuard guard;
  set_fused_epilogue_enabled(fused);
  const SchemeRef scheme = SchemeRef::parse(scheme_name);
  BoundStore bounds;
  if (scheme.needs_offline_bounds()) bounds = tight_bounds(model);

  MetricsRegistry metrics;
  ProtectionHook hook(model.config(),
                      scheme.instantiate(model.config(), std::move(bounds)),
                      ObsSinks{&metrics, nullptr});
  hook.set_clip_capture(true);

  InferenceSession session(model);
  const auto reg = session.hooks().add(hook);
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.eos_token = -1;

  ProtectedRun run;
  run.result = session.generate(test_prompt(), opts);
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    run.kind_stats[k] = hook.stats(static_cast<LayerKind>(k));
  }
  run.clips = hook.clip_events();
  run.first_detect = hook.first_detect_position();
  run.metrics = metrics.snapshot();
  run.online_valid = hook.online_bounds().valid_count();
  return run;
}

void expect_runs_identical(const ProtectedRun& a, const ProtectedRun& b) {
  EXPECT_EQ(a.result.tokens, b.result.tokens);
  EXPECT_EQ(a.result.positions_run, b.result.positions_run);
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    EXPECT_EQ(a.kind_stats[k].values_checked, b.kind_stats[k].values_checked)
        << layer_kind_name(static_cast<LayerKind>(k));
    EXPECT_EQ(a.kind_stats[k].nan_corrected, b.kind_stats[k].nan_corrected)
        << layer_kind_name(static_cast<LayerKind>(k));
    EXPECT_EQ(a.kind_stats[k].oob_corrected, b.kind_stats[k].oob_corrected)
        << layer_kind_name(static_cast<LayerKind>(k));
  }
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.online_valid, b.online_valid);
  ASSERT_EQ(a.clips.size(), b.clips.size());
  for (std::size_t i = 0; i < a.clips.size(); ++i) {
    EXPECT_EQ(a.clips[i].kind, b.clips[i].kind) << "clip " << i;
    EXPECT_EQ(a.clips[i].position, b.clips[i].position) << "clip " << i;
    EXPECT_EQ(f32_bits(a.clips[i].original), f32_bits(b.clips[i].original))
        << "clip " << i;
  }
  // protect.* counters (and every other metric) advance identically.
  ASSERT_EQ(a.metrics.counters.size(), b.metrics.counters.size());
  for (std::size_t i = 0; i < a.metrics.counters.size(); ++i) {
    EXPECT_EQ(a.metrics.counters[i].name, b.metrics.counters[i].name);
    EXPECT_EQ(a.metrics.counters[i].value, b.metrics.counters[i].value)
        << a.metrics.counters[i].name;
  }
}

TEST(FusedEpilogue, OfflineProtectedGenerationIdenticalFusedOnOff) {
  const TransformerLM model = micro_model();
  const ProtectedRun fused =
      run_protected(model, "ft2_offline", /*fused=*/true);
  const ProtectedRun hook_path =
      run_protected(model, "ft2_offline", /*fused=*/false);
  // The tight bounds must actually clip, or this test proves nothing.
  std::size_t total_oob = 0;
  for (const auto& s : fused.kind_stats) total_oob += s.oob_corrected;
  ASSERT_GT(total_oob, 0u) << "tight bounds produced no clips";
  ASSERT_FALSE(fused.clips.empty());
  expect_runs_identical(fused, hook_path);
}

TEST(FusedEpilogue, OnlineFt2GenerationIdenticalFusedOnOff) {
  // FT2 online: the first-token phase observes bounds through the fused
  // absorb path (post-correction values, flat order) — online bounds, the
  // protection they drive afterwards, and all accounting must match the
  // hook path exactly.
  const TransformerLM model = micro_model();
  const ProtectedRun fused = run_protected(model, "ft2", /*fused=*/true);
  const ProtectedRun hook_path =
      run_protected(model, "ft2", /*fused=*/false);
  ASSERT_GT(fused.online_valid, 0u) << "first-token phase observed no bounds";
  expect_runs_identical(fused, hook_path);
}

TEST(FusedEpilogue, DetectOnlySchemeIdenticalFusedOnOff) {
  // detect_only: violations are counted but values pass through unchanged.
  const TransformerLM model = micro_model();
  FusedGuard guard;
  auto run = [&](bool fused) {
    set_fused_epilogue_enabled(fused);
    auto spec = scheme_spec(SchemeKind::kFt2Offline, model.config());
    spec.detect_only = true;
    ProtectionHook hook(model.config(), spec, tight_bounds(model));
    InferenceSession session(model);
    const auto reg = session.hooks().add(hook);
    GenerateOptions opts;
    opts.max_new_tokens = 6;
    opts.eos_token = -1;
    const auto result = session.generate(test_prompt(), opts);
    return std::make_pair(result.tokens, hook.stats());
  };
  const auto fused = run(true);
  const auto hook_path = run(false);
  EXPECT_EQ(fused.first, hook_path.first);
  ASSERT_GT(fused.second.oob_corrected, 0u);
  EXPECT_EQ(fused.second.values_checked, hook_path.second.values_checked);
  EXPECT_EQ(fused.second.nan_corrected, hook_path.second.nan_corrected);
  EXPECT_EQ(fused.second.oob_corrected, hook_path.second.oob_corrected);
}

TEST(FusedEpilogue, CampaignOutcomesIdenticalFusedOnOff) {
  // Campaigns register the injector hook ahead of the protection hook, so
  // fused planning structurally falls back to the hook path at injected
  // sites — but the fault-free prefix recording and every non-first-hook
  // interaction still route through the fused engine paths. Outcomes,
  // detections and per-trial records must not move.
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(3, 5);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 10;
  config.gen_tokens = 6;

  FusedGuard guard;
  auto run = [&] {
    std::vector<TrialRecord> trace;
    const CampaignResult result = run_campaign(
        model, inputs, spec, BoundStore{}, config,
        [&](const TrialRecord& r) { trace.push_back(r); });
    std::sort(trace.begin(), trace.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.trial < b.trial;
              });
    return std::make_pair(result, std::move(trace));
  };
  set_fused_epilogue_enabled(true);
  const auto fused = run();
  set_fused_epilogue_enabled(false);
  const auto hook_path = run();

  EXPECT_EQ(fused.first.trials, hook_path.first.trials);
  EXPECT_EQ(fused.first.sdc, hook_path.first.sdc);
  EXPECT_EQ(fused.first.masked_identical, hook_path.first.masked_identical);
  EXPECT_EQ(fused.first.masked_semantic, hook_path.first.masked_semantic);
  EXPECT_EQ(fused.first.not_injected, hook_path.first.not_injected);
  ASSERT_EQ(fused.second.size(), hook_path.second.size());
  for (std::size_t t = 0; t < fused.second.size(); ++t) {
    EXPECT_EQ(fused.second[t].outcome, hook_path.second[t].outcome)
        << "trial " << t;
    EXPECT_EQ(fused.second[t].detections, hook_path.second[t].detections)
        << "trial " << t;
    EXPECT_EQ(fused.second[t].detect_position,
              hook_path.second[t].detect_position)
        << "trial " << t;
    EXPECT_EQ(fused.second[t].generated_text, hook_path.second[t].generated_text)
        << "trial " << t;
  }
}

TEST(FusedEpilogue, TierSwitchKeepsProtectedGenerationIdentical) {
  // Cross-tier x fused: the same protected generation on every supported
  // tier, fused on, must match the SSE hook-path reference token for token
  // and count for count.
  const TransformerLM model = micro_model();
  FusedGuard guard;
  set_kernel_tier(KernelTier::kSse);
  const ProtectedRun reference =
      run_protected(model, "ft2_offline", /*fused=*/false);
  for (KernelTier tier : supported_kernel_tiers()) {
    set_kernel_tier(tier);
    const ProtectedRun fused =
        run_protected(model, "ft2_offline", /*fused=*/true);
    SCOPED_TRACE(kernel_tier_name(tier));
    expect_runs_identical(fused, reference);
  }
}

TEST(FusedEpilogue, ModelBuiltBeforeTierSwitchRunsSelectedTier) {
  // Packed weight tiles are tier-independent and the kernel is looked up
  // when each GEMM runs, so a model packed under any tier serves every tier
  // selected afterwards — no repack — with results identical to the SSE
  // hook-path reference.
  FusedGuard guard;
  set_kernel_tier(KernelTier::kSse);
  const ProtectedRun reference =
      run_protected(micro_model(), "ft2_offline", /*fused=*/false);
  for (KernelTier build_tier : supported_kernel_tiers()) {
    set_kernel_tier(build_tier);
    const TransformerLM model = micro_model();
    for (KernelTier run_tier : supported_kernel_tiers()) {
      set_kernel_tier(run_tier);
      ASSERT_EQ(active_kernel_tier(), run_tier);
      const ProtectedRun fused =
          run_protected(model, "ft2_offline", /*fused=*/true);
      SCOPED_TRACE(std::string("built under ") + kernel_tier_name(build_tier) +
                   ", run under " + kernel_tier_name(run_tier));
      expect_runs_identical(fused, reference);
    }
  }
}

}  // namespace
}  // namespace ft2
