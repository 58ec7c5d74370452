// BoundDriftMonitor: strictly observational. The acceptance pin — a
// campaign with the monitor attached produces bit-identical outcomes,
// per-trial records, detections and protect.* counters to one without it,
// while additionally publishing protect.headroom.* — plus direct unit
// coverage of the headroom accounting.
#include "protect/drift.hpp"

#include <gtest/gtest.h>

#include <sstream>

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
  Xoshiro256 rng(21);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(BoundDrift, HeadroomBucketsSpanUnitInterval) {
  const auto buckets = headroom_buckets();
  ASSERT_EQ(buckets.size(), 20u);
  EXPECT_DOUBLE_EQ(buckets.front(), 0.05);
  EXPECT_DOUBLE_EQ(buckets.back(), 1.0);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
}

TEST(BoundDrift, ObservesPostFirstTokenDispatches) {
  const TransformerLM model = micro_model();
  const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
  MetricsRegistry registry;

  ProtectionHook protection(model.config(), spec, BoundStore{}, &registry);
  DriftMonitorOptions options;
  options.obs.metrics = &registry;
  BoundDriftMonitor monitor(protection, options);

  InferenceSession session(model);
  const auto protect_reg = session.hooks().add(protection);
  const auto monitor_reg = session.hooks().add(monitor);  // after protection
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.eos_token = -1;
  const std::vector<int> prompt = {Vocab::kBos, 5, 9, 13};
  session.generate(prompt, opts);

  // Decode-phase dispatches were monitored; first-token ones were not.
  EXPECT_GT(monitor.total_dispatches(), 0u);
  EXPECT_GE(monitor.near_clip_fraction(), 0.0);
  EXPECT_LE(monitor.near_clip_fraction(), 1.0);

  const MetricsSnapshot snap = registry.snapshot();
  std::uint64_t headroom_samples = 0;
  bool observed_any = false;
  for (LayerKind kind : spec.covered) {
    const auto* hist = snap.find_histogram(
        "protect.headroom." + std::string(layer_kind_name(kind)));
    ASSERT_NE(hist, nullptr);
    headroom_samples += hist->count;
    const Bounds& seen = monitor.observed(kind);
    if (seen.valid()) {
      observed_any = true;
      EXPECT_LE(seen.lo, seen.hi);
    }
  }
  EXPECT_EQ(headroom_samples, monitor.total_dispatches());
  EXPECT_TRUE(observed_any);
  const auto* gauge = snap.find_gauge("protect.headroom.near_clip_frac");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, monitor.near_clip_fraction());
}

struct CampaignArtifacts {
  CampaignResult result;
  std::string records_jsonl;
  MetricsSnapshot snapshot;
};

CampaignArtifacts run_with_drift(bool drift) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 99);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);
  MetricsRegistry registry;
  CampaignConfig config;
  config.trials_per_input = 12;
  config.gen_tokens = 6;
  config.fault_model = FaultModel::kExponentBit;
  config.obs.metrics = &registry;
  config.capture_clips = true;
  config.drift_monitor = drift;

  CampaignArtifacts out;
  TraceCollector trace;
  out.result = run_campaign(model, inputs, SchemeRef::parse("ft2"),
                            BoundStore{}, config, trace.callback());
  // trial_ms is wall time — documented as excluded from determinism
  // comparisons — so zero it before serializing.
  TraceCollector normalized;
  for (TrialRecord r : trace.records()) {
    r.trial_ms = 0.0;
    normalized.callback()(r);
  }
  std::ostringstream os;
  normalized.write_jsonl(os);
  out.records_jsonl = os.str();
  out.snapshot = registry.snapshot();
  return out;
}

TEST(BoundDrift, CampaignIsBitIdenticalWithMonitorOnOrOff) {
  const CampaignArtifacts off = run_with_drift(false);
  const CampaignArtifacts on = run_with_drift(true);
  ASSERT_GT(off.result.trials, 0u);

  // Outcomes and the full per-trial records (detections, detect positions,
  // clip events, generated text — everything serialized) are identical.
  EXPECT_EQ(on.result.trials, off.result.trials);
  EXPECT_EQ(on.result.masked_identical, off.result.masked_identical);
  EXPECT_EQ(on.result.masked_semantic, off.result.masked_semantic);
  EXPECT_EQ(on.result.sdc, off.result.sdc);
  EXPECT_EQ(on.result.not_injected, off.result.not_injected);
  EXPECT_EQ(on.records_jsonl, off.records_jsonl);

  // Every metric the drift-off run published exists unchanged in the
  // drift-on snapshot (campaign.* and protect.* counters included);
  // wall-time histograms are exempt (they measure time, not behaviour).
  for (const auto& c : off.snapshot.counters) {
    EXPECT_EQ(on.snapshot.counter_value(c.name), c.value) << c.name;
  }
  for (const auto& h : off.snapshot.histograms) {
    if (h.name == "campaign.trial_ms") continue;
    const auto* matching = on.snapshot.find_histogram(h.name);
    ASSERT_NE(matching, nullptr) << h.name;
    EXPECT_EQ(matching->count, h.count) << h.name;
    EXPECT_EQ(matching->counts, h.counts) << h.name;
  }

  // The drift-on run additionally published headroom data.
  std::uint64_t headroom = 0;
  for (const auto& h : on.snapshot.histograms) {
    if (h.name.rfind("protect.headroom.", 0) == 0) headroom += h.count;
  }
  EXPECT_GT(headroom, 0u);
  EXPECT_NE(on.snapshot.find_gauge("protect.headroom.near_clip_frac"),
            nullptr);
  // ...and the drift-off run did not.
  for (const auto& h : off.snapshot.histograms) {
    EXPECT_NE(h.name.rfind("protect.headroom.", 0), 0u) << h.name;
  }
}

}  // namespace
}  // namespace ft2
