// Regression pin for the DetectionScheme refactor: the legacy
// range-restriction schemes must stay bit-identical to the pre-refactor
// ProtectionHook. The fixtures under tests/fixtures/scheme_equiv were
// recorded with the pre-refactor build (same micro models, inputs and
// campaign configuration as below); this test re-runs the campaigns through
// the refactored driver + RangeRestrictScheme path and compares
//   * every per-trial record (outcomes, detections, clip events, text),
//   * campaign.* / protect.* counters and protect.* histogram buckets,
//   * a per-token-boundary capture_state digest of a fault-free recorded
//     generation plus the final online bounds (%.9g round-trips floats),
// across prefix-reuse off AND on (reuse is documented bit-identical), and
// through both campaign entry points: the SchemeSpec overload and the
// registry path (SchemeRef) that `ft2 campaign --scheme` runs.
//
// Regenerate after an intentional format/behaviour change with
//   FT2_UPDATE_FIXTURES=1 ./build/tests/ft2_tests \
//       --gtest_filter=SchemeEquivalence.*
// and review the fixture diff consciously.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ft2.hpp"
#include "fi/trace.hpp"
#include "protect/profiler.hpp"

namespace ft2 {
namespace {

constexpr const char* kFixtureDir = "tests/fixtures/scheme_equiv";

bool update_fixtures() {
  const char* v = std::getenv("FT2_UPDATE_FIXTURES");
  return v != nullptr && std::string_view(v) == "1";
}

TransformerLM micro_model(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  Xoshiro256 rng(47);
  return TransformerLM(c, init_weights(c, rng));
}

std::string f9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "missing fixture " << path
                           << " (run with FT2_UPDATE_FIXTURES=1 to record)";
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

/// Counters object minus campaign.prefix.* (those legitimately differ with
/// prefix reuse on: hits/misses are throughput accounting, not behaviour).
Json filter_prefix_counters(const Json& counters) {
  Json out = Json::object();
  for (const std::string& key : counters.keys()) {
    if (key.rfind("campaign.prefix.", 0) == 0) continue;
    out[key] = counters.at(key);
  }
  return out;
}

/// The recorder's metrics digest: every counter value plus the integer
/// shape of every protect.* histogram.
Json metrics_digest(const MetricsSnapshot& snap) {
  Json doc = Json::object();
  Json counters = Json::object();
  for (const auto& c : snap.counters) {
    counters[c.name] = static_cast<double>(c.value);
  }
  Json hists = Json::object();
  for (const auto& h : snap.histograms) {
    if (std::string_view(h.name).substr(0, 8) != "protect.") continue;
    Json entry = Json::object();
    Json counts = Json::array();
    for (auto v : h.counts) counts.push_back(static_cast<double>(v));
    entry["counts"] = std::move(counts);
    entry["count"] = static_cast<double>(h.count);
    entry["nan_count"] = static_cast<double>(h.nan_count);
    hists[h.name] = std::move(entry);
  }
  doc["counters"] = std::move(counters);
  doc["protect_histograms"] = std::move(hists);
  return doc;
}

struct FreshRun {
  std::vector<TrialRecord> records;
  Json metrics;
};

/// `scheme` is a SchemeSpec or a SchemeRef (the two run_campaign paths).
template <typename Scheme>
FreshRun run_campaign_fresh(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const Scheme& scheme, const BoundStore& offline,
                            bool prefix_reuse) {
  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 10;
  config.gen_tokens = 6;
  config.seed = 3;
  config.capture_clips = true;
  ThreadPool pool1(1);
  config.pool = &pool1;
  MetricsRegistry registry;
  config.obs.metrics = &registry;
  config.prefix_reuse = prefix_reuse;

  TraceCollector collector;
  run_campaign(model, inputs, scheme, offline, config, collector.callback());

  FreshRun out;
  out.records = collector.records();
  out.metrics = metrics_digest(registry.snapshot());
  return out;
}

/// Fault-free recorded generation digest (per-boundary capture_state totals
/// + final online bounds), exactly as the pre-refactor recorder built it.
Json state_digest(const TransformerLM& model, const EvalInput& input,
                  const SchemeSpec& spec, const BoundStore& offline) {
  ProtectionHook hook(model.config(), spec, offline);
  hook.set_clip_capture(true);
  InferenceSession session(model);
  const HookRegistration reg = session.hooks().add(hook);
  GenerateOptions options;
  options.max_new_tokens = 6;
  options.eos_token = -1;
  SessionSnapshot snap;
  Json boundaries = Json::array();
  session.generate_recorded(input.prompt, options, snap, [&](std::size_t) {
    const ProtectionState st = hook.capture_state();
    ProtectionStats total;
    for (const auto& s : st.kind_stats) total.merge(s);
    Json b = Json::object();
    b["values_checked"] = static_cast<double>(total.values_checked);
    b["nan_corrected"] = static_cast<double>(total.nan_corrected);
    b["oob_corrected"] = static_cast<double>(total.oob_corrected);
    b["first_detect_pos"] = static_cast<double>(st.first_detect_pos);
    b["clips"] = static_cast<double>(st.clips.size());
    const BoundStore& online = hook.online_bounds();
    b["online_valid"] =
        static_cast<double>(online.empty() ? 0 : online.valid_count());
    boundaries.push_back(std::move(b));
  });
  Json online = Json::array();
  const BoundStore& ob = hook.online_bounds();
  if (!ob.empty()) {
    for (std::size_t block = 0; block < model.config().n_blocks; ++block) {
      for (std::size_t k = 0; k < kLayerKindCount; ++k) {
        const LayerSite site{static_cast<int>(block),
                             static_cast<LayerKind>(k)};
        const Bounds& bd = ob.at(site);
        if (!bd.valid()) continue;
        Json e = Json::object();
        e["block"] = static_cast<double>(block);
        e["kind"] = std::string(layer_kind_name(site.kind));
        e["lo"] = f9(bd.lo);
        e["hi"] = f9(bd.hi);
        online.push_back(std::move(e));
      }
    }
  }

  // Round-trip check while the hook is live: restoring the final capture
  // into a fresh hook must reinstate stats, clips, first-detect and bounds.
  const ProtectionState final_state = hook.capture_state();
  ProtectionHook restored(model.config(), spec, offline);
  restored.set_clip_capture(true);
  restored.on_generation_begin();
  restored.restore_state(final_state);
  EXPECT_EQ(restored.stats().values_checked, hook.stats().values_checked);
  EXPECT_EQ(restored.stats().nan_corrected, hook.stats().nan_corrected);
  EXPECT_EQ(restored.stats().oob_corrected, hook.stats().oob_corrected);
  EXPECT_EQ(restored.first_detect_position(), hook.first_detect_position());
  EXPECT_EQ(restored.clip_events().size(), hook.clip_events().size());
  if (!hook.online_bounds().empty()) {
    EXPECT_FALSE(restored.online_bounds().empty());
    if (!restored.online_bounds().empty()) {
      EXPECT_EQ(restored.online_bounds().valid_count(),
                hook.online_bounds().valid_count());
    }
  }

  Json doc = Json::object();
  doc["boundaries"] = std::move(boundaries);
  doc["final_online_bounds"] = std::move(online);
  return doc;
}

/// Serializes records the way the comparison needs them: trial_ms is wall
/// time and scheme was introduced after the fixtures were recorded, so both
/// are normalized away before the field-by-field comparison.
std::string records_digest(std::vector<TrialRecord> records) {
  std::string out;
  for (TrialRecord& r : records) {
    r.scheme.clear();
    r.trial_ms = 0.0;
    out += trial_record_to_json(r).dump(-1);
    out += '\n';
  }
  return out;
}

void expect_same_spec(const SchemeSpec& a, const SchemeSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.correct_nan, b.correct_nan);
  EXPECT_EQ(a.bound_scale, b.bound_scale);
  EXPECT_EQ(a.online, b.online);
  EXPECT_EQ(a.needs_offline_bounds, b.needs_offline_bounds);
  EXPECT_EQ(a.detect_only, b.detect_only);
}

void check_scheme(const std::string& model_name, const TransformerLM& model,
                  const std::vector<EvalInput>& inputs,
                  const BoundStore& offline, const SchemeSpec& spec) {
  SCOPED_TRACE(model_name + "/" + spec.name);
  const std::string base =
      std::string(kFixtureDir) + "/" + model_name + "_" + spec.name;

  const FreshRun off = run_campaign_fresh(model, inputs, spec, offline,
                                          /*prefix_reuse=*/false);
  const Json state = state_digest(model, inputs[0], spec, offline);

  if (update_fixtures()) {
    TraceCollector collector;
    for (TrialRecord r : off.records) {
      r.trial_ms = 0.0;  // wall time: keep fixtures deterministic
      collector.callback()(r);
    }
    std::ostringstream os;
    collector.write_jsonl(os);
    write_file(base + ".records.jsonl", os.str());
    write_file(base + ".metrics.json", off.metrics.dump(1) + "\n");
    write_file(base + ".state.json", state.dump(1) + "\n");
    return;
  }

  const std::string fixture_jsonl = read_file(base + ".records.jsonl");
  std::istringstream lines(fixture_jsonl);
  const std::vector<TrialRecord> expected = read_trial_records_jsonl(lines);
  const Json expected_metrics = Json::parse(read_file(base + ".metrics.json"));

  // capture_state digest + final online bounds.
  const Json expected_state = Json::parse(read_file(base + ".state.json"));
  EXPECT_EQ(state.dump(1), expected_state.dump(1));

  // The registry entry is the same scheme as scheme_spec's.
  const SchemeRef ref = SchemeRef::parse(spec.name);
  expect_same_spec(ref.instantiate(model.config(), offline)->spec(), spec);

  const auto expect_fixture = [&](const FreshRun& run, bool prefix_reuse,
                                  const std::string& path) {
    SCOPED_TRACE(path + (prefix_reuse ? ", prefix reuse" : ""));
    // Per-trial records, field by field (scheme/trial_ms normalized away —
    // the fixtures predate both fields).
    ASSERT_EQ(run.records.size(), expected.size());
    EXPECT_EQ(records_digest(run.records), records_digest(expected));
    for (const TrialRecord& r : run.records) EXPECT_EQ(r.scheme, spec.name);
    if (!prefix_reuse) {
      // Counters + protect.* histograms.
      EXPECT_EQ(run.metrics.dump(1), expected_metrics.dump(1));
      return;
    }
    // Prefix reuse is documented bit-identical: same records, same
    // protect.* metrics; only the campaign.prefix.* throughput counters may
    // differ.
    EXPECT_EQ(filter_prefix_counters(run.metrics.at("counters")).dump(1),
              filter_prefix_counters(expected_metrics.at("counters")).dump(1));
    EXPECT_EQ(run.metrics.at("protect_histograms").dump(1),
              expected_metrics.at("protect_histograms").dump(1));
  };
  expect_fixture(off, false, "SchemeSpec");
  expect_fixture(run_campaign_fresh(model, inputs, spec, offline, true), true,
                 "SchemeSpec");
  for (const bool prefix_reuse : {false, true}) {
    expect_fixture(
        run_campaign_fresh(model, inputs, ref, offline, prefix_reuse),
        prefix_reuse, "SchemeRef");
  }
}

// One sequential test, not a parameterized suite: the recorder drew opt's
// samples, opt's profiling inputs, then llama's from ONE generator, so the
// llama fixtures depend on the generator state opt left behind.
TEST(SchemeEquivalence, LegacySchemesMatchPreRefactorFixtures) {
  const auto gen = make_generator(DatasetKind::kSynthQA);
  for (const auto& [model_name, arch] :
       {std::pair{std::string("opt"), ArchFamily::kOpt},
        std::pair{std::string("llama"), ArchFamily::kLlama}}) {
    const TransformerLM model = micro_model(arch);
    const auto samples = gen->generate_many(2, 5);
    const auto inputs = prepare_eval_inputs(model, samples, 6, false);
    ASSERT_FALSE(inputs.empty());

    OfflineProfileOptions prof;
    prof.n_inputs = 4;
    prof.seed = 11;
    prof.max_new_tokens = 6;
    const BoundStore offline = profile_offline_bounds(model, *gen, prof);

    const ModelConfig& cfg = model.config();
    for (const SchemeSpec& spec :
         {scheme_spec(SchemeKind::kNone, cfg),
          scheme_spec(SchemeKind::kRanger, cfg),
          scheme_spec(SchemeKind::kMaxiMals, cfg),
          scheme_spec(SchemeKind::kGlobalClipper, cfg),
          scheme_spec(SchemeKind::kFt2, cfg),
          scheme_spec(SchemeKind::kFt2Offline, cfg)}) {
      check_scheme(model_name, model, inputs, offline, spec);
    }
  }
}

}  // namespace
}  // namespace ft2
