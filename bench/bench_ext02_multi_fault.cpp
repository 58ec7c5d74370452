// Extension: sensitivity to the single-fault assumption (paper §2.3 assumes
// exactly one transient fault per inference). We sweep the number of
// independent faults per trial and check that FT2's advantage persists —
// each fault is detected/corrected independently by the per-layer clamp.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Extension: multiple faults per inference",
                      "single-fault-assumption sensitivity (paper §2.3)");

  const auto p = bench::prepare("llama-sm", DatasetKind::kSynthQA, s.inputs);

  Table table({"faults/trial", "none", "ft2", "ft2 reduction"});
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    CampaignConfig config;
    config.fault_model = FaultModel::kExponentBit;
    config.trials_per_input = s.trials * 2;
    config.gen_tokens = p.gen_tokens;
    config.faults_per_trial = k;

    const auto none = run_campaign(*p.model, p.inputs,
                                   SchemeRef::parse("none"), BoundStore{},
                                   config);
    const auto ft2 = run_campaign(*p.model, p.inputs, SchemeRef::parse("ft2"),
                                  BoundStore{}, config);
    const double reduction =
        none.sdc_rate() > 0 ? 1.0 - ft2.sdc_rate() / none.sdc_rate() : 0.0;
    table.begin_row()
        .count(k)
        .cell(bench::sdc_cell(none))
        .cell(bench::sdc_cell(ft2))
        .pct(reduction, 1);
  }
  table.print(std::cout);
  std::cout << "\nexpected: unprotected SDC grows roughly linearly with the "
               "fault count; FT2's relative reduction persists\n";
  return 0;
}
