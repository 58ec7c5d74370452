// Metric catalog completeness: every name a live workload registers (serve
// engine, protection hooks, drift monitor, campaign runner) must appear in
// metric_catalog(), and every trace span name recorded must be cataloged
// too — the catalog is what `ft2 metric-names` dumps and what
// tools/docs_check.sh verifies the docs against, so a gap here means a
// metric could exist undocumented.
#include "obs/catalog.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/ft2.hpp"
#include "fi/campaign.hpp"
#include "serve/serve_engine.hpp"

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

TEST(MetricCatalog, ExpandsPlaceholdersAndSorts) {
  const auto& catalog = metric_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    // <KIND>/<OUTCOME> expand to concrete names; the numeric wildcard <N>
    // stays literal (it matches any index via find_catalog_entry).
    const std::string& name = catalog[i].name;
    if (name.find('<') != std::string::npos) {
      EXPECT_EQ(name.substr(name.size() - 4), std::string(".<N>"))
          << "unexpanded placeholder: " << name;
    }
    if (i > 0) EXPECT_LT(catalog[i - 1].name, catalog[i].name);
  }
  EXPECT_TRUE(is_cataloged_metric("serve.decode.steps"));
  EXPECT_TRUE(is_cataloged_metric("protect.headroom.Q_PROJ"));
  EXPECT_TRUE(is_cataloged_metric("protect.headroom.near_clip_frac"));
  EXPECT_TRUE(is_cataloged_metric("campaign.outcome.sdc"));
  EXPECT_TRUE(is_cataloged_metric("campaign.site.MLP_ACT"));
  EXPECT_TRUE(is_cataloged_metric("serve.prefill"));    // span name
  EXPECT_TRUE(is_cataloged_metric("campaign.trial"));   // span name
  EXPECT_TRUE(is_cataloged_metric("trace.dropped"));
  EXPECT_TRUE(is_cataloged_metric("campaign.progress.done"));
  EXPECT_TRUE(is_cataloged_metric("campaign.progress.eta_s"));
  // Numeric wildcard: any shard index matches campaign.shard.progress.<N>.
  EXPECT_TRUE(is_cataloged_metric("campaign.shard.progress.0"));
  EXPECT_TRUE(is_cataloged_metric("campaign.shard.progress.137"));
  EXPECT_FALSE(is_cataloged_metric("campaign.shard.progress.x"));
  EXPECT_FALSE(is_cataloged_metric("campaign.shard.progress."));
  EXPECT_FALSE(is_cataloged_metric("serve.decode.step"));
  EXPECT_FALSE(is_cataloged_metric("protect.headroom.<KIND>"));
  EXPECT_FALSE(is_cataloged_metric(""));

  const auto names = all_metric_names();
  EXPECT_EQ(names.size(), catalog.size());
}

TEST(MetricCatalog, TemplateNamesAreUnexpandedAndSorted) {
  const auto templates = metric_template_names();
  ASSERT_FALSE(templates.empty());
  for (std::size_t i = 1; i < templates.size(); ++i) {
    EXPECT_LT(templates[i - 1], templates[i]);
  }
  // Templates keep placeholders (the docs gate keys rows off them) and
  // never contain an expansion.
  bool saw_kind = false;
  for (const std::string& name : templates) {
    if (name.find("<KIND>") != std::string::npos) saw_kind = true;
    EXPECT_EQ(name.find("V_PROJ"), std::string::npos) << name;
  }
  EXPECT_TRUE(saw_kind);
}

TEST(MetricCatalog, FindCatalogEntryResolvesWildcards) {
  const CatalogEntry* exact = find_catalog_entry("campaign.trials");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->name, "campaign.trials");
  const CatalogEntry* wildcard =
      find_catalog_entry("campaign.shard.progress.42");
  ASSERT_NE(wildcard, nullptr);
  EXPECT_EQ(wildcard->name, "campaign.shard.progress.<N>");
  EXPECT_EQ(find_catalog_entry("definitely.not.a.metric"), nullptr);
}

TEST(MetricCatalog, LiveWorkloadRegistersOnlyCatalogedNames) {
  const TransformerLM model = micro_model();
  MetricsRegistry registry;
  Tracer tracer(512, /*enabled=*/true);

  // Serve path with protection hooks.
  {
    ServeOptions serve_opts;
    serve_opts.obs.metrics = &registry;
    serve_opts.obs.tracer = &tracer;
    ServeEngine engine(model, serve_opts);
    const SchemeSpec spec = scheme_spec(SchemeKind::kFt2, model.config());
    ProtectionHook hook(model.config(), spec, BoundStore{}, &registry);
    GenerateOptions opts;
    opts.max_new_tokens = 4;
    opts.eos_token = -1;
    const std::vector<int> prompt = {Vocab::kBos, 5, 9};
    const RequestId id = engine.submit(prompt, opts);
    const auto reg = engine.hooks(id).add(hook);
    engine.run();
  }

  // Campaign path with drift monitor + prefix reuse + clip capture.
  {
    const auto samples =
        make_generator(DatasetKind::kSynthQA)->generate_many(1, 99);
    const auto inputs = prepare_eval_inputs(model, samples, 4, false);
    CampaignConfig config;
    config.trials_per_input = 4;
    config.gen_tokens = 4;
    config.obs.metrics = &registry;
    config.obs.tracer = &tracer;
    config.drift_monitor = true;
    config.capture_clips = true;
    run_campaign(model, inputs, SchemeRef::parse("ft2"), BoundStore{}, config);
  }

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_FALSE(snap.counters.empty());
  EXPECT_FALSE(snap.histograms.empty());
  for (const auto& c : snap.counters) {
    EXPECT_TRUE(is_cataloged_metric(c.name)) << "uncataloged: " << c.name;
  }
  for (const auto& g : snap.gauges) {
    EXPECT_TRUE(is_cataloged_metric(g.name)) << "uncataloged: " << g.name;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_TRUE(is_cataloged_metric(h.name)) << "uncataloged: " << h.name;
  }

  std::set<std::string> span_names;
  for (const TraceEvent& event : tracer.events()) {
    span_names.insert(event.name);
  }
  EXPECT_FALSE(span_names.empty());
  for (const std::string& name : span_names) {
    EXPECT_TRUE(is_cataloged_metric(name)) << "uncataloged span: " << name;
  }
}

}  // namespace
}  // namespace ft2
