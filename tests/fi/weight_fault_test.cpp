#include "fi/weight_fault.hpp"

#include <gtest/gtest.h>

namespace ft2 {
namespace {

ModelConfig micro_config() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  return c;
}

TransformerLM micro_model() {
  const ModelConfig c = micro_config();
  Xoshiro256 rng(11);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(WeightFault, SpaceCountsAllWeightElements) {
  const ModelConfig c = micro_config();
  const WeightFaultSpace space(c);
  // Per block: Q,K,V,OUT: 4 * 16*16; GATE,UP: 2 * 24*16; DOWN: 16*24.
  const std::size_t per_block = 4 * 16 * 16 + 2 * 24 * 16 + 16 * 24;
  EXPECT_EQ(space.total_elements(), 2 * per_block);
}

TEST(WeightFault, SampleStaysInRange) {
  const ModelConfig c = micro_config();
  const WeightFaultSpace space(c);
  for (std::size_t t = 0; t < 500; ++t) {
    PhiloxStream rng(3, t);
    const auto plan =
        space.sample(FaultModel::kSingleBit, ValueType::kF16, rng);
    EXPECT_TRUE(is_linear_layer(plan.site.kind));
    EXPECT_LT(static_cast<std::size_t>(plan.site.block), c.n_blocks);
    EXPECT_LT(plan.row, c.layer_output_dim(plan.site.kind));
    const std::size_t cols = (plan.site.kind == LayerKind::kDownProj ||
                              plan.site.kind == LayerKind::kFc2)
                                 ? c.d_ff
                                 : c.d_model;
    EXPECT_LT(plan.col, cols);
  }
}

TEST(WeightFault, ScopedFaultAppliesAndRestores) {
  TransformerLM model = micro_model();
  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kVProj};
  plan.row = 3;
  plan.col = 5;
  plan.flips.count = 1;
  plan.flips.bits[0] = 15;  // sign flip

  LinearWeights& lw = linear_at(model.weights(), model.config(), plan.site);
  const float before = lw.w.at(3, 5);
  {
    ScopedWeightFault fault(model, plan);
    EXPECT_EQ(lw.w.at(3, 5), fault.faulty_value());
    EXPECT_EQ(fault.original_value(), before);
    EXPECT_NE(lw.w.at(3, 5), before);
  }
  EXPECT_EQ(lw.w.at(3, 5), before);
}

TEST(WeightFault, FaultChangesGeneration) {
  TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 2);
  const auto inputs = prepare_eval_inputs(model, samples, 8, false);

  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.eos_token = -1;
  InferenceSession session(model);
  const auto clean = session.generate(inputs[0].prompt, opts);

  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kOutProj};
  plan.row = 0;
  plan.col = 0;
  plan.flips.count = 1;
  plan.flips.bits[0] = f16::kExponentHigh;
  {
    ScopedWeightFault fault(model, plan);
    InferenceSession faulty_session(model);
    const auto faulty = faulty_session.generate(inputs[0].prompt, opts);
    // An exponent flip on a weight makes a whole row of products extreme;
    // the generation virtually always changes.
    EXPECT_NE(clean.tokens, faulty.tokens);
  }
  InferenceSession restored(model);
  EXPECT_EQ(restored.generate(inputs[0].prompt, opts).tokens, clean.tokens);
}

TEST(WeightFault, CampaignRunsAndIsReproducible) {
  TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 9);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 15;
  config.gen_tokens = 6;

  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const auto a =
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config);
  const auto b =
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config);
  EXPECT_EQ(a.trials, 30u);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.masked_identical, b.masked_identical);
}

TEST(MultiFault, MoreFaultsNeverInjectLess) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 10);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig one;
  one.fault_model = FaultModel::kExponentBit;
  one.trials_per_input = 25;
  one.gen_tokens = 6;
  CampaignConfig three = one;
  three.faults_per_trial = 3;

  const auto r1 =
      run_campaign(model, inputs, SchemeRef::parse("none"), BoundStore{}, one);
  const auto r3 = run_campaign(model, inputs, SchemeRef::parse("none"),
                               BoundStore{}, three);
  EXPECT_EQ(r1.trials, r3.trials);
  // With a random-weight model the exact rates are noisy; assert the
  // mechanical property: all trials still classified.
  EXPECT_EQ(r3.masked_identical + r3.masked_semantic + r3.sdc +
                r3.not_injected,
            r3.trials);
}

}  // namespace
}  // namespace ft2
