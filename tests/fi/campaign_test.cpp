// Campaign runner behaviour on a micro trained-enough model. These tests
// use a random-weight model where training is unnecessary (classification
// and reproducibility are weight-agnostic).
#include "fi/campaign.hpp"

#include <gtest/gtest.h>

namespace ft2 {
namespace {

TransformerLM micro_model() {
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(21);
  return TransformerLM(c, init_weights(c, rng));
}

std::vector<Sample> qa_samples(std::size_t n) {
  return make_generator(DatasetKind::kSynthQA)->generate_many(n, 99);
}

TEST(Campaign, TruncateAtEos) {
  EXPECT_EQ(truncate_at_eos({5, 6, Vocab::kEos, 7}), (std::vector<int>{5, 6}));
  EXPECT_EQ(truncate_at_eos({Vocab::kEos}), (std::vector<int>{}));
  EXPECT_EQ(truncate_at_eos({7, 8}), (std::vector<int>{7, 8}));
  // Edges: empty generation, <eos> leading a non-empty tail.
  EXPECT_EQ(truncate_at_eos({}), (std::vector<int>{}));
  EXPECT_EQ(truncate_at_eos({Vocab::kEos, 5, 6}), (std::vector<int>{}));
}

TEST(Campaign, ClassifyOutcome) {
  const Vocab& v = Vocab::shared();
  EvalInput input;
  input.sample.reference = "paris";
  input.reference_tokens = v.encode("bob lives in paris");
  input.reference_tokens.push_back(Vocab::kEos);

  // Identical (incl. post-eos garbage that gets truncated).
  auto same = input.reference_tokens;
  same.push_back(v.id("cairo"));
  EXPECT_EQ(classify_outcome(same, input), Outcome::kMaskedIdentical);

  // Different text but contains the reference answer.
  EXPECT_EQ(classify_outcome(v.encode("in paris he lives"), input),
            Outcome::kMaskedSemantic);

  // Wrong answer.
  EXPECT_EQ(classify_outcome(v.encode("bob lives in cairo"), input),
            Outcome::kSdc);

  // Empty output.
  EXPECT_EQ(classify_outcome({}, input), Outcome::kSdc);

  // Generation shorter than the reference: a bare prefix without the
  // answer is SDC; a short output that still contains the answer is
  // masked-semantic.
  EXPECT_EQ(classify_outcome(v.encode("bob lives"), input), Outcome::kSdc);
  EXPECT_EQ(classify_outcome(v.encode("paris"), input),
            Outcome::kMaskedSemantic);

  // Reference that is all <eos>: only the identical (empty-after-
  // truncation) generation is masked-identical.
  EvalInput eos_input;
  eos_input.sample.reference = "paris";
  eos_input.reference_tokens = {Vocab::kEos};
  EXPECT_EQ(classify_outcome({Vocab::kEos, 9}, eos_input),
            Outcome::kMaskedIdentical);
  EXPECT_EQ(classify_outcome(v.encode("cairo"), eos_input), Outcome::kSdc);
}

TEST(Campaign, NotInjectedWhenFaultSiteBeyondDecodeHorizon) {
  // With max_seq shorter than prompt_len + gen_tokens - 1 some planned
  // decode positions are never executed: the injector cannot fire and the
  // trial classifies as kNotInjected (regardless of prefix reuse, which
  // clamps such forks to the last executed boundary).
  ModelConfig c;
  c.arch = ArchFamily::kOpt;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 16;
  Xoshiro256 rng(21);
  const TransformerLM model(c, init_weights(c, rng));

  auto samples = qa_samples(1);
  while (samples[0].prompt_tokens.size() < 14) {
    samples[0].prompt_tokens.push_back(samples[0].prompt_tokens.front());
  }
  const auto inputs = prepare_eval_inputs(model, samples, 8, false);
  CampaignConfig config;
  config.trials_per_input = 30;
  config.gen_tokens = 8;
  config.fault_model = FaultModel::kExponentBit;

  std::vector<TrialRecord> trace;
  const auto result = run_campaign(
      model, inputs, SchemeRef::parse("none"), BoundStore{}, config,
      [&](const TrialRecord& r) { trace.push_back(r); });
  EXPECT_GT(result.not_injected, 0u);
  std::size_t seen = 0;
  for (const TrialRecord& r : trace) {
    if (r.outcome != Outcome::kNotInjected) continue;
    ++seen;
    // Every not-injected plan points past the last executed forward.
    EXPECT_GE(r.plan.position, c.max_seq);
  }
  EXPECT_EQ(seen, result.not_injected);
}

TEST(Campaign, PrepareEvalInputsFiltersIncorrect) {
  const TransformerLM model = micro_model();  // random weights
  const auto samples = qa_samples(5);
  const auto all = prepare_eval_inputs(model, samples, 8, false);
  ASSERT_EQ(all.size(), 5u);
  std::size_t correct = 0;
  for (const auto& input : all) {
    if (input.fault_free_correct) ++correct;
    EXPECT_EQ(input.prompt[0], Vocab::kBos);
    EXPECT_EQ(input.reference_tokens.size(), 8u);
  }
  // Filtering keeps exactly the fault-free-correct subset.
  const auto kept = prepare_eval_inputs(model, samples, 8, true);
  EXPECT_EQ(kept.size(), correct);
  for (const auto& input : kept) EXPECT_TRUE(input.fault_free_correct);
}

TEST(Campaign, RunIsReproducibleAndCountsAddUp) {
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(model, qa_samples(3), 8, false);
  CampaignConfig config;
  config.trials_per_input = 20;
  config.gen_tokens = 8;
  config.seed = 5;
  config.fault_model = FaultModel::kExponentBit;

  const auto a = run_campaign(model, inputs, SchemeRef::parse("none"),
                              BoundStore{}, config);
  const auto b = run_campaign(model, inputs, SchemeRef::parse("none"),
                              BoundStore{}, config);
  EXPECT_EQ(a.trials, 60u);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.masked_identical, b.masked_identical);
  EXPECT_EQ(a.masked_semantic, b.masked_semantic);
  EXPECT_EQ(a.trials,
            a.masked_identical + a.masked_semantic + a.sdc + a.not_injected);
  EXPECT_EQ(a.not_injected, 0u);  // fixed-length runs always reach the site
}

TEST(Campaign, DifferentSeedsGiveDifferentFaults) {
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(model, qa_samples(2), 8, false);
  CampaignConfig c1, c2;
  c1.trials_per_input = c2.trials_per_input = 40;
  c1.gen_tokens = c2.gen_tokens = 8;
  c1.fault_model = c2.fault_model = FaultModel::kExponentBit;
  c1.seed = 1;
  c2.seed = 2;
  const auto a = run_campaign(model, inputs, SchemeRef::parse("none"),
                              BoundStore{}, c1);
  const auto b = run_campaign(model, inputs, SchemeRef::parse("none"),
                              BoundStore{}, c2);
  // Outcome distributions rarely coincide exactly with 80 random faults.
  EXPECT_TRUE(a.masked_identical != b.masked_identical || a.sdc != b.sdc ||
              a.masked_semantic != b.masked_semantic);
}

TEST(Campaign, ResultMergeAndCi) {
  CampaignResult a, b;
  a.trials = 100;
  a.sdc = 3;
  a.masked_identical = 97;
  b.trials = 50;
  b.sdc = 1;
  b.masked_identical = 49;
  a.merge(b);
  EXPECT_EQ(a.trials, 150u);
  EXPECT_EQ(a.sdc, 4u);
  EXPECT_NEAR(a.sdc_rate(), 4.0 / 150.0, 1e-12);
  const auto ci = a.sdc_ci();
  EXPECT_GT(ci.hi, ci.lo);
  EXPECT_GT(ci.margin, 0.0);
}

TEST(Campaign, EmptyInputsThrow) {
  const TransformerLM model = micro_model();
  CampaignConfig config;
  EXPECT_THROW(run_campaign(model, {}, SchemeRef::parse("none"),
                            BoundStore{}, config),
               Error);
}

TEST(Campaign, MaskedIdenticalWhenFaultIsHarmless) {
  // With protection that zeroes everything out-of-tiny-bounds the model
  // output may change; but a sign-bit flip on a zero value is a no-op, so
  // at least *some* trials must be masked-identical under kNone.
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(model, qa_samples(2), 6, false);
  CampaignConfig config;
  config.trials_per_input = 60;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kSingleBit;
  const auto result = run_campaign(model, inputs, SchemeRef::parse("none"),
                                   BoundStore{}, config);
  EXPECT_GT(result.masked_identical, 0u);
}

}  // namespace
}  // namespace ft2
