// Figure 9 + take-aways #6/#8: bound-scaling sweep for FT2's online
// first-token bounds (Qwen2-7B / qwen2-sm on GSM8K / synthmath, EXP faults),
// plus the clip-to-bound vs clip-to-zero ablation.
// Expected shape: scale 1.0 can be WORSE than no protection (limited online
// data clips normal values); any scale >= 1.25 helps; FT2 is insensitive to
// the exact factor; clip-to-zero underperforms clip-to-bound.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("FT2 bound-scaling factor sweep + clip-policy ablation",
                      "Figure 9");

  const auto p = bench::prepare("qwen2-sm", DatasetKind::kSynthMath, s.inputs);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = s.trials * 2;
  config.gen_tokens = p.gen_tokens;

  Table table({"configuration", "SDC rate (95% CI)"});
  {
    const auto none = run_campaign(*p.model, p.inputs,
                                   SchemeRef::parse("none"), BoundStore{},
                                   config);
    table.begin_row().cell("no protection").cell(bench::sdc_cell(none));
  }
  for (float scale : {1.0f, 1.25f, 1.5f, 2.0f, 3.0f, 4.0f}) {
    SchemeSpec spec = scheme_spec(SchemeKind::kFt2, p.model->config());
    spec.bound_scale = scale;
    const auto result =
        run_campaign(*p.model, p.inputs, spec, BoundStore{}, config);
    table.begin_row()
        .cell("ft2, scale " + Table::format(scale, 2))
        .cell(bench::sdc_cell(result));
  }
  // Ablation: FT2 coverage and scaling but clip-to-zero correction.
  {
    SchemeSpec spec = scheme_spec(SchemeKind::kFt2, p.model->config());
    spec.policy = ClipPolicy::kToZero;
    const auto result =
        run_campaign(*p.model, p.inputs, spec, BoundStore{}, config);
    table.begin_row()
        .cell("ft2, scale 2.00, clip-to-ZERO (ablation)")
        .cell(bench::sdc_cell(result));
  }
  // Ablation: Dr.DNA-style clip-to-typical (median) correction with
  // offline-profiled medians (paper take-away #8 rejects this for
  // generative LLMs).
  {
    const auto gen = make_generator(DatasetKind::kSynthMath);
    OfflineProfileOptions profile;
    profile.n_inputs = s.profile_inputs;
    profile.seed = 555;
    profile.max_new_tokens = p.gen_tokens;
    profile.with_typical = true;
    const BoundStore typical_bounds =
        profile_offline_bounds(*p.model, *gen, profile);
    SchemeSpec spec = scheme_spec(SchemeKind::kFt2Offline, p.model->config());
    spec.policy = ClipPolicy::kToTypical;
    const auto result =
        run_campaign(*p.model, p.inputs, spec, typical_bounds, config);
    table.begin_row()
        .cell("offline bounds, clip-to-TYPICAL (Dr.DNA-style)")
        .cell(bench::sdc_cell(result));
  }
  table.print(std::cout);
  std::cout << "\npaper: unscaled first-token bounds RAISE the SDC rate; any "
               "scale in [1.25, 4] cuts it sharply; FT2 uses 2\n";
  return 0;
}
