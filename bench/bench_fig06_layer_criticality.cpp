// Figure 6 + Take-away #1/#5: leave-one-out layer criticality.
// Protect all linear layers except the tested one, inject faults everywhere
// (EXP model), and measure the residual SDC rate. Layers whose exclusion
// raises the SDC rate are critical; the architectural heuristic must agree.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

namespace {

SchemeSpec all_except(const ModelConfig& config, LayerKind excluded) {
  SchemeSpec spec;
  spec.name = "ft2_offline";
  spec.policy = ClipPolicy::kToBound;
  spec.correct_nan = true;
  spec.needs_offline_bounds = true;
  spec.bound_scale = 1.0f;
  for (LayerKind k : config.block_layers()) {
    if (is_linear_layer(k) && k != excluded) spec.covered.push_back(k);
  }
  return spec;
}

}  // namespace

int main() {
  const auto s = bench::sizes();
  bench::print_header("Layer criticality via leave-one-out protection",
                      "Figure 6 / Table 1 validation");

  // The paper reports GPTJ-6B + SQuAD 2.0 for this figure.
  const auto p = bench::prepare("gptj-sm", DatasetKind::kSynthQA, s.inputs);
  const BoundStore bounds = bench::offline_bounds(
      *p.model, DatasetKind::kSynthQA, s.profile_inputs, p.gen_tokens);
  const LayerGraph graph = LayerGraph::build(p.model->config());

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = s.trials * 2;  // leave-one-out needs resolution
  config.gen_tokens = p.gen_tokens;

  Table table({"unprotected layer", "SDC rate (95% CI)",
               "heuristic says critical"});
  {
    const auto all = run_campaign(*p.model, p.inputs,
                                  all_except(p.model->config(),
                                             LayerKind::kCount),
                                  bounds, config);
    table.begin_row().cell("(none - all protected)")
        .cell(bench::sdc_cell(all)).cell("-");
  }
  for (LayerKind kind : p.model->config().block_layers()) {
    if (!is_linear_layer(kind)) continue;
    const auto result = run_campaign(
        *p.model, p.inputs, all_except(p.model->config(), kind), bounds,
        config);
    table.begin_row()
        .cell(std::string(layer_kind_name(kind)))
        .cell(bench::sdc_cell(result))
        .cell(layer_is_critical(graph, kind) ? "Y" : "N");
  }
  table.print(std::cout);
  std::cout << "\npaper (GPTJ-6B, SQuAD 2.0): K/Q/FC1 0.29-0.38% (non-critical)"
               " vs V/OUT/FC2 0.75-1.82% (critical)\n";
  return 0;
}
