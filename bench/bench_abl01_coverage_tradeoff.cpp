// Ablation (paper §4.1): protecting the critical layers only vs protecting
// every linear layer. The paper argues full protection costs "nearly 2x"
// while critical-only protection achieves essentially the same reliability.
// We measure both the SDC rate and the protection work (values checked)
// for: none / FT2 (critical only) / all linear layers / non-critical only.
// The non-critical-only row is the sanity ablation: it should barely help.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

namespace {

SchemeSpec with_coverage(const ModelConfig& config,
                         std::vector<LayerKind> covered) {
  SchemeSpec spec;
  spec.name = "ft2";
  spec.policy = ClipPolicy::kToBound;
  spec.correct_nan = true;
  spec.bound_scale = 2.0f;
  spec.online = true;
  spec.covered = std::move(covered);
  return spec;
}

double protected_width(const ModelConfig& config,
                       const std::vector<LayerKind>& covered) {
  double w = 0;
  for (LayerKind k : covered) {
    w += static_cast<double>(config.layer_output_dim(k));
  }
  return w * static_cast<double>(config.n_blocks);
}

}  // namespace

int main() {
  const auto s = bench::sizes();
  bench::print_header(
      "Ablation: protection coverage vs reliability and cost",
      "§4.1 'protecting every layer may introduce undesirable overhead'");

  const auto p = bench::prepare("llama-sm", DatasetKind::kSynthQA, s.inputs);
  const ModelConfig& config = p.model->config();

  std::vector<LayerKind> all_linears;
  for (LayerKind k : config.block_layers()) {
    if (is_linear_layer(k)) all_linears.push_back(k);
  }

  struct Variant {
    const char* name;
    SchemeSpec spec;
  };
  const std::vector<Variant> variants = {
      {"none", scheme_spec(SchemeKind::kNone, config)},
      {"ft2 (critical only)", scheme_spec(SchemeKind::kFt2, config)},
      {"all linear layers", with_coverage(config, all_linears)},
      {"non-critical only", with_coverage(config,
                                          non_critical_layers(config))},
  };

  CampaignConfig cc;
  cc.fault_model = FaultModel::kExponentBit;
  cc.trials_per_input = s.trials * 2;
  cc.gen_tokens = p.gen_tokens;

  Table table({"coverage", "SDC rate (95% CI)", "values checked / position"});
  for (const auto& v : variants) {
    const auto result =
        run_campaign(*p.model, p.inputs, v.spec, BoundStore{}, cc);
    table.begin_row()
        .cell(v.name)
        .cell(bench::sdc_cell(result))
        .num(protected_width(config, v.spec.covered), 0);
  }
  table.print(std::cout);
  std::cout << "\nexpected: critical-only matches all-layers reliability at "
               "roughly half the checked values; non-critical-only barely "
               "improves on none\n";
  return 0;
}
