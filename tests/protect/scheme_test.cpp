#include "protect/scheme.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "protect/critical.hpp"
#include "protect/detection_scheme.hpp"

namespace ft2 {
namespace {

ModelConfig opt_config() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = 8;
  c.n_blocks = 2;
  c.d_model = 16;
  c.d_ff = 32;
  return c;
}

ModelConfig llama_config() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.vocab_size = 8;
  c.n_blocks = 2;
  c.d_model = 16;
  c.d_ff = 24;
  return c;
}

// --- Table 1 coverage matrix ------------------------------------------------

TEST(SchemeSpec, RangerCoversOnlyActivations) {
  const auto spec = scheme_spec(SchemeKind::kRanger, opt_config());
  ASSERT_EQ(spec.covered.size(), 1u);
  EXPECT_EQ(spec.covered[0], LayerKind::kMlpAct);
  EXPECT_EQ(spec.policy, ClipPolicy::kToZero);
  EXPECT_FALSE(spec.correct_nan);
  EXPECT_TRUE(spec.needs_offline_bounds);
  EXPECT_FALSE(spec.online);
}

TEST(SchemeSpec, MaxiMalsCoverage) {
  const auto opt = scheme_spec(SchemeKind::kMaxiMals, opt_config());
  EXPECT_TRUE(opt.covers(LayerKind::kOutProj));
  EXPECT_TRUE(opt.covers(LayerKind::kFc2));
  EXPECT_FALSE(opt.covers(LayerKind::kVProj));
  EXPECT_FALSE(opt.covers(LayerKind::kDownProj));  // not in this arch

  const auto llama = scheme_spec(SchemeKind::kMaxiMals, llama_config());
  EXPECT_TRUE(llama.covers(LayerKind::kOutProj));
  EXPECT_TRUE(llama.covers(LayerKind::kDownProj));
  EXPECT_FALSE(llama.covers(LayerKind::kUpProj));  // the paper's gap
}

TEST(SchemeSpec, GlobalClipperCoversAttentionLinears) {
  const auto spec = scheme_spec(SchemeKind::kGlobalClipper, llama_config());
  EXPECT_TRUE(spec.covers(LayerKind::kVProj));
  EXPECT_TRUE(spec.covers(LayerKind::kOutProj));
  EXPECT_FALSE(spec.covers(LayerKind::kDownProj));  // MLP gap
  EXPECT_TRUE(spec.correct_nan);
}

TEST(SchemeSpec, Ft2CoversAllCriticalLayers) {
  for (const ModelConfig& c : {opt_config(), llama_config()}) {
    const auto spec = scheme_spec(SchemeKind::kFt2, c);
    const auto crit = critical_layers(c);
    EXPECT_EQ(spec.covered, crit);
    EXPECT_EQ(spec.policy, ClipPolicy::kToBound);
    EXPECT_TRUE(spec.correct_nan);
    EXPECT_TRUE(spec.online);
    EXPECT_FALSE(spec.needs_offline_bounds);
    EXPECT_FLOAT_EQ(spec.bound_scale, 2.0f);
  }
}

TEST(SchemeSpec, Ft2OfflineSameCoverageDifferentBoundsSource) {
  const auto on = scheme_spec(SchemeKind::kFt2, llama_config());
  const auto off = scheme_spec(SchemeKind::kFt2Offline, llama_config());
  EXPECT_EQ(on.covered, off.covered);
  EXPECT_EQ(off.policy, ClipPolicy::kToBound);
  EXPECT_FALSE(off.online);
  EXPECT_TRUE(off.needs_offline_bounds);
}

TEST(SchemeSpec, NoneCoversNothing) {
  const auto spec = scheme_spec(SchemeKind::kNone, opt_config());
  EXPECT_TRUE(spec.covered.empty());
}

TEST(SchemeSpec, Names) {
  // A Table-1 spec carries the name the registry knows it by.
  const ModelConfig c = opt_config();
  EXPECT_EQ(scheme_spec(SchemeKind::kNone, c).name, "none");
  EXPECT_EQ(scheme_spec(SchemeKind::kRanger, c).name, "ranger");
  EXPECT_EQ(scheme_spec(SchemeKind::kMaxiMals, c).name, "maximals");
  EXPECT_EQ(scheme_spec(SchemeKind::kGlobalClipper, c).name, "global_clipper");
  EXPECT_EQ(scheme_spec(SchemeKind::kFt2, c).name, "ft2");
  EXPECT_EQ(scheme_spec(SchemeKind::kFt2Offline, c).name, "ft2_offline");
  // The range family plus the checksum/adaptive built-ins are all
  // registered by name.
  const std::vector<std::string> names = all_scheme_names();
  EXPECT_GE(names.size(), 8u);
  for (const char* expected :
       {"none", "ranger", "maximals", "global_clipper", "ft2", "ft2_offline",
        "abft-linear", "ft2-adaptive"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// --- ProtectionHook behaviour ------------------------------------------------

HookContext ctx_at(LayerKind kind, bool first_token, int block = 0) {
  return HookContext{LayerSite{block, kind}, 0, first_token};
}

TEST(ProtectionHook, OfflineSchemeClampsCoveredSites) {
  const ModelConfig c = opt_config();
  BoundStore bounds(c);
  bounds.at({0, LayerKind::kFc2}).observe(-1.0f);
  bounds.at({0, LayerKind::kFc2}).observe(1.0f);

  SchemeSpec spec = scheme_spec(SchemeKind::kMaxiMals, c);
  spec.bound_scale = 1.0f;
  ProtectionHook hook(c, spec, bounds);

  std::vector<float> covered = {5.0f, -0.5f};
  hook.on_output(ctx_at(LayerKind::kFc2, false), covered);
  EXPECT_EQ(covered[0], 0.0f);  // MaxiMals clips to zero
  EXPECT_EQ(covered[1], -0.5f);

  std::vector<float> uncovered = {100.0f};
  hook.on_output(ctx_at(LayerKind::kQProj, false), uncovered);
  EXPECT_EQ(uncovered[0], 100.0f);
}

TEST(ProtectionHook, MissingOfflineBoundsThrows) {
  const ModelConfig c = opt_config();
  EXPECT_THROW(
      ProtectionHook(c, scheme_spec(SchemeKind::kRanger, c), BoundStore{}),
      Error);
}

TEST(ProtectionHook, Ft2RecordsDuringFirstTokenThenProtects) {
  const ModelConfig c = opt_config();
  ProtectionHook hook(c, scheme_spec(SchemeKind::kFt2, c));
  hook.on_generation_begin();

  // First-token phase: values observed (bounds [-1, 2]), NaN corrected.
  std::vector<float> first = {-1.0f, 2.0f, std::nanf("")};
  hook.on_output(ctx_at(LayerKind::kVProj, true), first);
  EXPECT_EQ(first[2], 0.0f);
  EXPECT_EQ(hook.online_bounds().at({0, LayerKind::kVProj}).lo, -1.0f);
  EXPECT_EQ(hook.online_bounds().at({0, LayerKind::kVProj}).hi, 2.0f);

  // Following tokens: bounds x2 => [-2, 4]; out-of-bound clips TO BOUND.
  std::vector<float> later = {3.0f, 100.0f, -5.0f, std::nanf("")};
  hook.on_output(ctx_at(LayerKind::kVProj, false), later);
  EXPECT_EQ(later[0], 3.0f);   // inside scaled bounds
  EXPECT_EQ(later[1], 4.0f);   // clipped to hi
  EXPECT_EQ(later[2], -2.0f);  // clipped to lo
  EXPECT_EQ(later[3], 0.0f);   // NaN corrected
}

TEST(ProtectionHook, Ft2FirstTokenIsUnprotectedAgainstExtremes) {
  const ModelConfig c = opt_config();
  ProtectionHook hook(c, scheme_spec(SchemeKind::kFt2, c));
  hook.on_generation_begin();
  std::vector<float> first = {65504.0f};
  hook.on_output(ctx_at(LayerKind::kOutProj, true), first);
  EXPECT_EQ(first[0], 65504.0f);  // only NaN is corrected in phase one
}

TEST(ProtectionHook, Ft2BoundsResetPerGeneration) {
  const ModelConfig c = opt_config();
  ProtectionHook hook(c, scheme_spec(SchemeKind::kFt2, c));
  hook.on_generation_begin();
  std::vector<float> v = {10.0f};
  hook.on_output(ctx_at(LayerKind::kVProj, true), v);
  EXPECT_TRUE(hook.online_bounds().at({0, LayerKind::kVProj}).valid());
  hook.on_generation_begin();
  EXPECT_FALSE(hook.online_bounds().at({0, LayerKind::kVProj}).valid());
}

TEST(ProtectionHook, PerBlockBoundsAreIndependent) {
  const ModelConfig c = opt_config();
  ProtectionHook hook(c, scheme_spec(SchemeKind::kFt2, c));
  hook.on_generation_begin();
  std::vector<float> small = {0.1f};
  std::vector<float> big = {10.0f};
  hook.on_output(ctx_at(LayerKind::kVProj, true, 0), small);
  hook.on_output(ctx_at(LayerKind::kVProj, true, 1), big);

  // Block 0 bounds: [0.1, 0.1] -> scaled [0.05, 0.2]. 5.0 clips to 0.2.
  std::vector<float> v0 = {5.0f};
  hook.on_output(ctx_at(LayerKind::kVProj, false, 0), v0);
  EXPECT_FLOAT_EQ(v0[0], 0.2f);
  // Block 1 bounds scaled to [5, 20]: 5.0 stays.
  std::vector<float> v1 = {5.0f};
  hook.on_output(ctx_at(LayerKind::kVProj, false, 1), v1);
  EXPECT_FLOAT_EQ(v1[0], 5.0f);
}

TEST(ProtectionHook, NoneSchemeIsTransparent) {
  const ModelConfig c = opt_config();
  ProtectionHook hook(c, scheme_spec(SchemeKind::kNone, c));
  std::vector<float> v = {std::nanf(""), 1e9f};
  hook.on_output(ctx_at(LayerKind::kVProj, false), v);
  EXPECT_TRUE(std::isnan(v[0]));
  EXPECT_EQ(v[1], 1e9f);
}

TEST(ProtectionHook, MemoryAccounting) {
  const ModelConfig c = llama_config();  // 4 critical kinds x 2 blocks
  ProtectionHook hook(c, scheme_spec(SchemeKind::kFt2, c));
  EXPECT_EQ(hook.protected_layer_count(), 8u);
  EXPECT_EQ(hook.bound_memory_bytes(), 8u * 8u);
}

}  // namespace
}  // namespace ft2
