// End-to-end integration: train a micro model from scratch, verify it
// answers the task, then reproduce the paper's core claim in miniature —
// FT2 (online, first-token bounds, critical layers only) substantially
// reduces the SDC rate of EXP-model fault injection at a protection cost
// of zero offline profiling.
#include <gtest/gtest.h>

#include "core/ft2.hpp"

namespace ft2 {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ModelConfig c;
    c.name = "e2e";
    c.arch = ArchFamily::kLlama;
    c.norm = NormKind::kRmsNorm;
    c.position = PositionKind::kRotary;
    c.activation = Activation::kSilu;
    c.linear_bias = false;
    c.vocab_size = Vocab::shared().size();
    c.d_model = 40;
    c.n_heads = 4;
    c.n_blocks = 2;
    c.d_ff = 80;
    c.max_seq = 96;
    Xoshiro256 rng(77);
    model_ = new TransformerLM(c, init_weights(c, rng));

    const auto gen = make_generator(DatasetKind::kSynthQA);
    TrainerConfig tc;
    tc.steps = 2000;
    tc.peak_lr = 3e-3f;
    tc.eval_every = 200;
    tc.min_steps = 600;
    tc.eval_samples = 32;
    tc.target_accuracy = 0.97;
    tc.seed = 7;
    report_ = train_model(*model_, {gen.get()}, tc);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static TransformerLM* model_;
  static TrainReport report_;
};

TransformerLM* EndToEnd::model_ = nullptr;
TrainReport EndToEnd::report_;

TEST_F(EndToEnd, TrainingReachesHighAccuracy) {
  EXPECT_GE(report_.final_accuracy, 0.9) << "micro model failed to learn QA";
}

TEST_F(EndToEnd, Ft2ReducesSdcRate) {
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const auto samples = gen->generate_many(24, 123);
  auto inputs = prepare_eval_inputs(*model_, samples, 10, true);
  ASSERT_GE(inputs.size(), 8u);
  if (inputs.size() > 10) inputs.resize(10);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 60;
  config.gen_tokens = 10;

  const auto none = run_campaign(*model_, inputs, SchemeRef::parse("none"),
                                 BoundStore{}, config);
  const auto ft2 = run_campaign(*model_, inputs, SchemeRef::parse("ft2"),
                                BoundStore{}, config);

  // The paper's headline: a large relative SDC reduction. At this trial
  // count we assert a conservative factor-of-2.
  EXPECT_GT(none.sdc, 0u) << "EXP faults never caused SDCs — campaign broken?";
  EXPECT_LT(ft2.sdc_rate(), none.sdc_rate() * 0.55)
      << "none=" << none.sdc << "/" << none.trials << " ft2=" << ft2.sdc
      << "/" << ft2.trials;
}

TEST_F(EndToEnd, Ft2ProtectorFacadeWorks) {
  const auto gen = make_generator(DatasetKind::kSynthQA);
  Xoshiro256 rng(5);
  const Sample sample = gen->generate(rng);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                sample.prompt_tokens.end());

  InferenceSession session(*model_);
  Ft2Protector protector(*model_);
  protector.attach(session);

  GenerateOptions opts;
  opts.max_new_tokens = 10;
  opts.eos_token = Vocab::kEos;
  const auto out = session.generate(prompt, opts);

  // Online bounds were captured for every critical site during prefill.
  for (LayerKind kind : protector.critical()) {
    for (std::size_t b = 0; b < model_->config().n_blocks; ++b) {
      EXPECT_TRUE(protector.online_bounds()
                      .at({static_cast<int>(b), kind})
                      .valid())
          << layer_kind_name(kind) << " block " << b;
    }
  }
  EXPECT_EQ(protector.bound_memory_bytes(),
            protector.critical().size() * model_->config().n_blocks * 8);

  // Protection must not change fault-free behaviour.
  InferenceSession bare(*model_);
  const auto reference = bare.generate(prompt, opts);
  EXPECT_EQ(out.tokens, reference.tokens);
}

TEST_F(EndToEnd, OfflineAndOnlineBoundsAgreeRoughly) {
  // Take-away #7: first-token bounds approximate offline-profiled bounds.
  const auto gen = make_generator(DatasetKind::kSynthQA);
  OfflineProfileOptions profile;
  profile.n_inputs = 8;
  profile.seed = 99;
  profile.max_new_tokens = 10;
  const BoundStore offline = profile_offline_bounds(*model_, *gen, profile);

  Xoshiro256 rng(17);
  const Sample sample = gen->generate(rng);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                sample.prompt_tokens.end());
  InferenceSession session(*model_);
  Ft2Protector protector(*model_);
  protector.attach(session);
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  session.generate(prompt, opts);

  for (LayerKind kind : protector.critical()) {
    const Bounds& on = protector.online_bounds().at({0, kind});
    const Bounds& off = offline.at({0, kind});
    ASSERT_TRUE(on.valid());
    ASSERT_TRUE(off.valid());
    // Same order of magnitude: the online width is within [1/4, 1.5] of the
    // offline width (narrower because it saw a single input; it can exceed
    // slightly because its prompt is not in the profiling set).
    const float on_width = on.hi - on.lo;
    const float off_width = off.hi - off.lo;
    EXPECT_GE(on_width, off_width / 4.0f) << layer_kind_name(kind);
    EXPECT_LE(on_width, off_width * 1.5f) << layer_kind_name(kind);
  }
}

}  // namespace
}  // namespace ft2
