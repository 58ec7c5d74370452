// Suffix reuse: a forked campaign trial whose state rejoins the fault-free
// recording stops running and takes the recording's suffix. Like prefix
// reuse it must be invisible in everything a campaign reports: records
// (every TrialRecord field but trial_ms), protect.* counters and
// histograms are bit-identical to full replay (prefix_reuse off) for every
// registered scheme, every fault model, multi-fault trials and clip
// capture. Also covers the session-level rejoin contract directly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ft2.hpp"
#include "fi/trace.hpp"

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
  Xoshiro256 rng(47);
  return TransformerLM(c, init_weights(c, rng));
}

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Every TrialRecord field except trial_ms (wall time); floats bit for bit.
void expect_same_record(const TrialRecord& a, const TrialRecord& b,
                        const std::string& label) {
  const std::string at = label + " trial " + std::to_string(a.trial);
  EXPECT_EQ(a.trial, b.trial) << at;
  EXPECT_EQ(a.input_index, b.input_index) << at;
  EXPECT_EQ(a.plan.position, b.plan.position) << at;
  EXPECT_EQ(a.plan.site, b.plan.site) << at;
  EXPECT_EQ(a.plan.neuron, b.plan.neuron) << at;
  EXPECT_EQ(a.plan.vtype, b.plan.vtype) << at;
  EXPECT_EQ(a.plan.in_first_token, b.plan.in_first_token) << at;
  EXPECT_EQ(a.plan.flips.count, b.plan.flips.count) << at;
  EXPECT_EQ(a.plan.flips.bits, b.plan.flips.bits) << at;
  EXPECT_EQ(a.outcome, b.outcome) << at;
  EXPECT_EQ(a.detections, b.detections) << at;
  EXPECT_EQ(a.generated_text, b.generated_text) << at;
  EXPECT_EQ(a.fault_model, b.fault_model) << at;
  EXPECT_EQ(a.fired, b.fired) << at;
  EXPECT_EQ(a.nan_detections, b.nan_detections) << at;
  EXPECT_EQ(a.oob_detections, b.oob_detections) << at;
  EXPECT_EQ(a.detect_position, b.detect_position) << at;
  EXPECT_TRUE(same_bits(a.injected_original, b.injected_original)) << at;
  EXPECT_TRUE(same_bits(a.injected_value, b.injected_value)) << at;
  EXPECT_EQ(a.scheme, b.scheme) << at;
  ASSERT_EQ(a.clips.size(), b.clips.size()) << at;
  for (std::size_t i = 0; i < a.clips.size(); ++i) {
    EXPECT_EQ(a.clips[i].kind, b.clips[i].kind) << at << " clip " << i;
    EXPECT_EQ(a.clips[i].position, b.clips[i].position) << at << " clip " << i;
    EXPECT_TRUE(same_bits(a.clips[i].original, b.clips[i].original))
        << at << " clip " << i;
  }
}

bool is_protect(std::string_view name) {
  return name.substr(0, 8) == "protect.";
}

/// Every protect.* counter and histogram of `a` exists in `b` unchanged.
void expect_protect_metrics_in(const MetricsSnapshot& a,
                               const MetricsSnapshot& b,
                               const std::string& label) {
  for (const auto& c : a.counters) {
    if (!is_protect(c.name)) continue;
    EXPECT_EQ(c.value, b.counter_value(c.name)) << label << " " << c.name;
  }
  for (const auto& h : a.histograms) {
    if (!is_protect(h.name)) continue;
    const auto* match = b.find_histogram(h.name);
    ASSERT_NE(match, nullptr) << label << " " << h.name;
    EXPECT_EQ(h.count, match->count) << label << " " << h.name;
    EXPECT_EQ(h.counts, match->counts) << label << " " << h.name;
    EXPECT_EQ(h.nan_count, match->nan_count) << label << " " << h.name;
    // Concurrent trials may add to the sum in another order.
    EXPECT_NEAR(h.sum, match->sum, 1e-6 * (1.0 + std::abs(h.sum)))
        << label << " " << h.name;
  }
}

struct Capture {
  CampaignResult result;
  std::vector<TrialRecord> records;
  MetricsSnapshot metrics;
};

Capture run(const TransformerLM& model, const std::vector<EvalInput>& inputs,
            const SchemeRef& scheme, const BoundStore& offline,
            CampaignConfig config, bool prefix_reuse) {
  MetricsRegistry registry;
  config.prefix_reuse = prefix_reuse;
  config.obs.metrics = &registry;
  TraceCollector collector;
  Capture cap;
  cap.result = run_campaign(model, inputs, scheme, offline, config,
                            collector.callback());
  cap.records = collector.records();
  cap.metrics = registry.snapshot();
  return cap;
}

void expect_identical(const Capture& off, const Capture& on,
                      const std::string& label) {
  EXPECT_EQ(off.result.trials, on.result.trials) << label;
  EXPECT_EQ(off.result.masked_identical, on.result.masked_identical) << label;
  EXPECT_EQ(off.result.masked_semantic, on.result.masked_semantic) << label;
  EXPECT_EQ(off.result.sdc, on.result.sdc) << label;
  EXPECT_EQ(off.result.not_injected, on.result.not_injected) << label;
  ASSERT_EQ(off.records.size(), on.records.size()) << label;
  for (std::size_t t = 0; t < off.records.size(); ++t) {
    expect_same_record(off.records[t], on.records[t], label);
  }
  expect_protect_metrics_in(off.metrics, on.metrics, label);
  expect_protect_metrics_in(on.metrics, off.metrics, label);
  // One saved-positions sample per rejoined trial.
  const auto* saved =
      on.metrics.find_histogram("campaign.prefix.suffix_saved_positions");
  ASSERT_NE(saved, nullptr) << label;
  EXPECT_EQ(saved->count,
            on.metrics.counter_value("campaign.prefix.suffix_hit"))
      << label;
}

TEST(SuffixReuse, BitIdenticalToFullReplayForEverySchemeAndFaultModel) {
  const TransformerLM model = micro_model();
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const auto inputs =
      prepare_eval_inputs(model, gen->generate_many(3, 5), 6, false);
  ASSERT_FALSE(inputs.empty());
  OfflineProfileOptions prof;
  prof.n_inputs = 4;
  prof.seed = 11;
  prof.max_new_tokens = 6;
  const BoundStore offline = profile_offline_bounds(model, *gen, prof);

  // ft2 with unscaled first-token bounds clips fault-free decode values,
  // so the recorded suffix carries detections: a trial that rejoins before
  // the recording's first one must report that position.
  std::vector<std::string> schemes = all_scheme_names();
  schemes.push_back("ft2:scale=1");
  std::uint64_t ft2_exp_hits = 0;
  for (const std::string& name : schemes) {
    const SchemeRef scheme = SchemeRef::parse(name);
    for (FaultModel fm : {FaultModel::kSingleBit, FaultModel::kDoubleBit,
                          FaultModel::kExponentBit}) {
      for (std::size_t faults : {1, 2}) {
        CampaignConfig config;
        config.fault_model = fm;
        config.trials_per_input = 12;
        config.gen_tokens = 6;
        config.seed = 5;
        config.faults_per_trial = faults;
        config.capture_clips = true;
        const std::string label = name + "/" + fault_model_name(fm) + "/" +
                                  std::to_string(faults) + " faults";
        const Capture off = run(model, inputs, scheme, offline, config, false);
        const Capture on = run(model, inputs, scheme, offline, config, true);
        expect_identical(off, on, label);
        if (name == "ft2" && fm == FaultModel::kExponentBit) {
          ft2_exp_hits += on.metrics.counter_value("campaign.prefix.suffix_hit");
        }
      }
    }
  }
  // The rejoin path must actually run, not just be bit-identical by never
  // firing.
  EXPECT_GT(ft2_exp_hits, 0u);
}

TEST(SuffixReuse, DriftMonitorKeepsRecordsAndRejoins) {
  const TransformerLM model = micro_model();
  const auto inputs = prepare_eval_inputs(
      model, make_generator(DatasetKind::kSynthQA)->generate_many(3, 5), 6,
      false);
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 12;
  config.gen_tokens = 6;
  config.seed = 5;
  config.capture_clips = true;
  config.drift_monitor = true;
  // One worker: trials add their headroom sums in the same order with
  // reuse on and off, so the sums can be compared bit for bit.
  ThreadPool one_worker(1);
  config.pool = &one_worker;
  const SchemeRef ft2 = SchemeRef::parse("ft2");
  const Capture off = run(model, inputs, ft2, BoundStore{}, config, false);
  const Capture on = run(model, inputs, ft2, BoundStore{}, config, true);
  ASSERT_EQ(off.records.size(), on.records.size());
  for (std::size_t t = 0; t < off.records.size(); ++t) {
    expect_same_record(off.records[t], on.records[t], "drift");
  }
  EXPECT_GT(on.metrics.counter_value("campaign.prefix.hit"), 0u);
  EXPECT_GT(on.metrics.counter_value("campaign.prefix.suffix_hit"), 0u);
  // Forked trials replay the recording's headroom samples for the skipped
  // prefix and suffix, so every protect.headroom.<KIND> histogram equals
  // full replay's.
  const auto headroom_hists = [](const MetricsSnapshot& snap) {
    std::vector<const MetricsSnapshot::HistogramValue*> out;
    for (const auto& h : snap.histograms) {
      if (h.name.rfind("protect.headroom.", 0) == 0) out.push_back(&h);
    }
    return out;
  };
  const auto off_hists = headroom_hists(off.metrics);
  ASSERT_FALSE(off_hists.empty());
  ASSERT_EQ(off_hists.size(), headroom_hists(on.metrics).size());
  for (const auto* hist : off_hists) {
    const auto& a = *hist;
    const auto* match = on.metrics.find_histogram(a.name);
    ASSERT_NE(match, nullptr) << a.name;
    const auto& b = *match;
    EXPECT_GT(a.count, 0u) << a.name;
    EXPECT_EQ(a.count, b.count) << a.name;
    EXPECT_EQ(a.counts, b.counts) << a.name;
    EXPECT_EQ(a.nan_count, b.nan_count) << a.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sum),
              std::bit_cast<std::uint64_t>(b.sum))
        << a.name;
  }
  expect_protect_metrics_in(off.metrics, on.metrics, "drift");
  expect_protect_metrics_in(on.metrics, off.metrics, "drift");
}

/// A fault-free recording of `prompt` under FT2 with per-boundary hook
/// states, for the session-level tests.
struct Recording {
  SessionSnapshot snap;
  std::vector<ProtectionState> hook_at;
  ProtectionStats full;
};

Recording record(const TransformerLM& model, const std::vector<int>& prompt,
                 const GenerateOptions& options) {
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  ProtectionHook hook(model.config(), spec, BoundStore{});
  hook.set_clip_capture(true);
  InferenceSession session(model);
  const HookRegistration reg = session.hooks().add(hook);
  Recording rec;
  session.generate_recorded(prompt, options, rec.snap, [&](std::size_t) {
    rec.hook_at.push_back(hook.capture_state());
  });
  rec.full = hook.stats();
  return rec;
}

std::vector<int> test_prompt() {
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 7);
  std::vector<int> prompt = {Vocab::kBos};
  prompt.insert(prompt.end(), samples[0].prompt_tokens.begin(),
                samples[0].prompt_tokens.end());
  return prompt;
}

TEST(SuffixReuse, FaultFreeForkRejoinsAtOnceAndReplaysTheSuffix) {
  const TransformerLM model = micro_model();
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const std::vector<int> prompt = test_prompt();
  for (const float temperature : {0.0f, 0.8f}) {
    GenerateOptions options;
    options.max_new_tokens = 8;
    options.eos_token = -1;
    options.temperature = temperature;
    options.sample_seed = 3;
    const Recording rec = record(model, prompt, options);
    ASSERT_TRUE(rec.snap.valid());
    const std::size_t last_forward = rec.snap.result.positions_run;

    for (std::size_t pos = rec.snap.prompt_len;
         pos <= rec.snap.last_boundary(); ++pos) {
      const std::string at = "temperature " + std::to_string(temperature) +
                             " fork at " + std::to_string(pos);
      ProtectionHook hook(model.config(), spec, BoundStore{});
      hook.set_clip_capture(true);
      InferenceSession session(model);
      const HookRegistration reg = session.hooks().add(hook);
      const std::size_t s = pos - rec.snap.prompt_len;
      std::vector<std::size_t> asked;
      const auto result = session.resume_from(
          rec.snap, pos, [&] { hook.restore_state(rec.hook_at[s]); },
          [&](std::size_t b) {
            asked.push_back(b);
            return hook.scheme().state_matches(rec.hook_at[b].scheme.get());
          });
      // Without a fault nothing differs, so the first boundary that still
      // has a forward after it is the rejoin point.
      EXPECT_EQ(result.tokens, rec.snap.result.tokens) << at;
      EXPECT_EQ(result.positions_run, rec.snap.result.positions_run) << at;
      EXPECT_EQ(result.hit_max, rec.snap.result.hit_max) << at;
      if (pos + 1 < last_forward) {
        EXPECT_EQ(result.rejoined_at, s + 1) << at;
        EXPECT_EQ(asked, std::vector<std::size_t>{s + 1}) << at;
        hook.replay(rec.hook_at[s + 1], rec.hook_at.back(), -1);
      } else {
        EXPECT_EQ(result.rejoined_at, 0u) << at;
        EXPECT_TRUE(asked.empty()) << at;
      }
      const ProtectionStats got = hook.stats();
      EXPECT_EQ(got.values_checked, rec.full.values_checked) << at;
      EXPECT_EQ(got.nan_corrected, rec.full.nan_corrected) << at;
      EXPECT_EQ(got.oob_corrected, rec.full.oob_corrected) << at;
      EXPECT_EQ(hook.clip_events().size(), rec.hook_at.back().clips.size())
          << at;
    }
  }
}

TEST(SuffixReuse, DecliningHooksRunToTheEnd) {
  // A predicate that never agrees is asked at every boundary that still
  // has a forward after it, and the run is the plain fork.
  const TransformerLM model = micro_model();
  const std::vector<int> prompt = test_prompt();
  GenerateOptions options;
  options.max_new_tokens = 8;
  options.eos_token = -1;
  const Recording rec = record(model, prompt, options);
  const std::size_t pos = rec.snap.prompt_len + 1;
  InferenceSession session(model);
  std::vector<std::size_t> asked;
  const auto result = session.resume_from(rec.snap, pos, {}, [&](std::size_t b) {
    asked.push_back(b);
    return false;
  });
  EXPECT_EQ(result.tokens, rec.snap.result.tokens);
  EXPECT_EQ(result.positions_run, rec.snap.result.positions_run);
  EXPECT_EQ(result.rejoined_at, 0u);
  std::vector<std::size_t> expected;
  for (std::size_t b = 2; rec.snap.prompt_len + b < rec.snap.result.positions_run;
       ++b) {
    expected.push_back(b);
  }
  EXPECT_EQ(asked, expected);
}

TEST(SuffixReuse, DefaultSchemeDeclines) {
  // Schemes that do not implement the comparison never let a trial stop
  // early; the range-restriction family compares its bounds.
  const TransformerLM model = micro_model();
  const auto adaptive = SchemeRef::parse("ft2-adaptive").instantiate(model.config());
  const auto abft = SchemeRef::parse("abft-linear").instantiate(model.config());
  EXPECT_FALSE(adaptive->state_matches(adaptive->capture_state().get()));
  EXPECT_FALSE(abft->state_matches(abft->capture_state().get()));
  const auto ft2 = SchemeRef::parse("ft2").instantiate(model.config());
  EXPECT_TRUE(ft2->state_matches(ft2->capture_state().get()));
  EXPECT_FALSE(ft2->state_matches(nullptr));
}

}  // namespace
}  // namespace ft2
