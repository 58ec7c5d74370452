// Figure 2: motivating example — SDC rate of Llama2-7B (llama-sm) on GSM8K
// (synthmath) under the EXP fault model, with each protection applied.
// Expected shape: Ranger ~ no protection; Global Clipper helps a little;
// MaxiMals helps more (but misses UP_PROJ on Llama models); FT2 lowest.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Motivating example: SDC with existing protections",
                      "Figure 2");

  const auto p = bench::prepare("llama-sm", DatasetKind::kSynthMath, s.inputs);
  const BoundStore bounds = bench::offline_bounds(
      *p.model, DatasetKind::kSynthMath, s.profile_inputs, p.gen_tokens);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = s.trials;
  config.gen_tokens = p.gen_tokens;

  Table table({"protection", "SDC rate (95% CI)", "masked_identical",
               "masked_semantic"});
  // Fig. 2 compares the paper's baselines only (no ft2_offline, no newer
  // registry schemes).
  for (const char* name :
       {"none", "ranger", "maximals", "global_clipper", "ft2"}) {
    const auto result = run_campaign(*p.model, p.inputs,
                                     SchemeRef::parse(name), bounds, config);
    table.begin_row()
        .cell(name)
        .cell(bench::sdc_cell(result))
        .count(result.masked_identical)
        .count(result.masked_semantic);
  }
  table.print(std::cout);
  std::cout << "\npaper: none 3.63%, ranger 3.35%, maximals 1.92%, "
               "global_clipper 1.25%, ft2 0.19% (Llama2-7B, GSM8K, EXP)\n";
  return 0;
}
