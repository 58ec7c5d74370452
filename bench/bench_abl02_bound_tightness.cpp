// Ablation: bound tightness (min/max vs quantile bounds).
// Tighter offline bounds catch smaller faulty deviations (better recall)
// but start clipping the benign activation tail (false positives that can
// flip correct outputs) — the precision/recall knob of range restriction.
// This probes both sides: SDC rate under EXP faults AND fault-free output
// correctness, per quantile level.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Ablation: bound tightness (min/max vs quantiles)",
                      "range-restriction design space (§3/§4 context)");

  const auto p = bench::prepare("opt-sm", DatasetKind::kSynthQA, s.inputs);
  const auto gen = make_generator(DatasetKind::kSynthQA);

  SchemeSpec spec = scheme_spec(SchemeKind::kFt2Offline, p.model->config());
  spec.bound_scale = 1.0f;  // expose the raw bounds, no safety margin

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = s.trials * 2;
  config.gen_tokens = p.gen_tokens;

  Table table({"bounds", "SDC rate (95% CI)", "fault-free correct"});
  {
    const auto none = run_campaign(*p.model, p.inputs,
                                   SchemeRef::parse("none"), BoundStore{},
                                   config);
    table.begin_row().cell("(no protection)").cell(bench::sdc_cell(none))
        .pct(1.0);
  }
  struct Level {
    const char* name;
    double q;
  };
  for (const Level level : {Level{"min/max (q=0)", 0.0},
                            Level{"q=0.001", 0.001},
                            Level{"q=0.01", 0.01},
                            Level{"q=0.05", 0.05}}) {
    OfflineProfileOptions profile;
    profile.n_inputs = s.profile_inputs;
    profile.seed = 555;
    profile.max_new_tokens = p.gen_tokens;
    profile.quantile = level.q;
    const BoundStore bounds =
        level.q == 0.0
            ? bench::offline_bounds(*p.model, DatasetKind::kSynthQA,
                                    s.profile_inputs, p.gen_tokens)
            : profile_offline_bounds(*p.model, *gen, profile);
    const auto result =
        run_campaign(*p.model, p.inputs, spec, bounds, config);
    const double correct = fault_free_correct_fraction(
        *p.model, p.inputs, spec, bounds, p.gen_tokens);
    table.begin_row()
        .cell(level.name)
        .cell(bench::sdc_cell(result))
        .pct(correct);
  }
  table.print(std::cout);
  std::cout << "\nexpected: moderate tightening keeps (or improves) fault "
               "coverage; aggressive tightening starts clipping benign "
               "values and costs fault-free correctness — the failure mode "
               "behind the paper's Fig. 3 and Fig. 9 scale-1.0 results\n";
  return 0;
}
