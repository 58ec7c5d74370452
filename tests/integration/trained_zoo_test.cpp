// Smoke tests against the trained, cached zoo checkpoints. These reproduce
// the paper's core ordering on real (trained) models; they are SKIPPED when
// no checkpoint cache is available (e.g. a pristine checkout running ctest
// before any bench/example has trained the zoo).
#include <gtest/gtest.h>

#include "core/ft2.hpp"
#include "fi/trace.hpp"

namespace ft2 {
namespace {

std::shared_ptr<const TransformerLM> load_if_cached(const std::string& name) {
  const std::string path = model_cache_dir() + "/" + name + ".ft2m";
  if (!checkpoint_exists(path)) return nullptr;
  return ensure_model(name, /*quiet=*/true);
}

TEST(TrainedZoo, ModelsAnswerQaCorrectly) {
  const auto model = load_if_cached("opt-sm");
  if (!model) GTEST_SKIP() << "no cached checkpoint (run examples/train_zoo)";
  const auto gen = make_generator(DatasetKind::kSynthQA);
  EXPECT_GE(evaluate_accuracy(*model, *gen, 30, 777), 0.9);
}

TEST(TrainedZoo, Ft2BeatsUnprotectedOnTrainedModel) {
  const auto model = load_if_cached("opt-sm");
  if (!model) GTEST_SKIP() << "no cached checkpoint (run examples/train_zoo)";

  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(20, 31415);
  auto inputs = prepare_eval_inputs(*model, samples, 10, true);
  ASSERT_GE(inputs.size(), 10u);
  inputs.resize(10);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 50;
  config.gen_tokens = 10;

  const auto none = run_campaign(*model, inputs, SchemeRef::parse("none"),
                                 BoundStore{}, config);
  const auto ft2 = run_campaign(*model, inputs, SchemeRef::parse("ft2"),
                                BoundStore{}, config);
  EXPECT_GT(none.sdc, 0u);
  EXPECT_LT(ft2.sdc_rate(), none.sdc_rate())
      << "none=" << none.sdc << " ft2=" << ft2.sdc;
}

TEST(TrainedZoo, CriticalLayersDrawMoreSdcThanNonCritical) {
  const auto model = load_if_cached("gptj-sm");
  if (!model) GTEST_SKIP() << "no cached checkpoint (run examples/train_zoo)";

  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(16, 99);
  auto inputs = prepare_eval_inputs(*model, samples, 10, true);
  ASSERT_GE(inputs.size(), 8u);
  if (inputs.size() > 8) inputs.resize(8);

  // Trace an unprotected EXP campaign and split SDCs by criticality class.
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 120;
  config.gen_tokens = 10;

  TraceCollector trace;
  run_campaign(*model, inputs, SchemeRef::parse("none"), BoundStore{}, config,
               trace.callback());

  const auto crit = critical_layers(model->config());
  auto is_critical = [&crit](LayerKind k) {
    return std::find(crit.begin(), crit.end(), k) != crit.end();
  };
  std::size_t crit_faults = 0, crit_sdc = 0;
  std::size_t noncrit_faults = 0, noncrit_sdc = 0;
  for (const auto& r : trace.records()) {
    if (is_critical(r.plan.site.kind)) {
      ++crit_faults;
      if (r.outcome == Outcome::kSdc) ++crit_sdc;
    } else {
      ++noncrit_faults;
      if (r.outcome == Outcome::kSdc) ++noncrit_sdc;
    }
  }
  ASSERT_GT(crit_faults, 0u);
  ASSERT_GT(noncrit_faults, 0u);
  const double crit_rate =
      static_cast<double>(crit_sdc) / static_cast<double>(crit_faults);
  const double noncrit_rate =
      static_cast<double>(noncrit_sdc) / static_cast<double>(noncrit_faults);
  // Take-away #1: faults in critical layers cause SDCs more often.
  EXPECT_GT(crit_rate, noncrit_rate)
      << "critical " << crit_sdc << "/" << crit_faults << " vs non-critical "
      << noncrit_sdc << "/" << noncrit_faults;
}

}  // namespace
}  // namespace ft2
