// Figure 16: sensitivity to hardware — SDC rates must be (statistically)
// identical across GPU generations. We model the hardware difference as a
// different matmul reduction order (sequential vs 8-wide chunked partial
// sums, the kind of tiling change a new tensor-core generation brings) and
// show the SDC rates agree within confidence intervals. The perfmodel
// provides the corresponding A100/H100 timing difference, which is where
// the two GPUs actually differ.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;
namespace pm = ft2::perfmodel;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Hardware sensitivity: A100-like vs H100-like execution",
                      "Figure 16");

  struct Case {
    const char* model;
    DatasetKind dataset;
  };
  // The paper evaluates OPT-6.7B + SQuAD and Qwen2-7B + XTREME.
  const Case cases[] = {{"opt-sm", DatasetKind::kSynthQA},
                        {"qwen2-sm", DatasetKind::kSynthXQA}};

  Table table({"model", "dataset", "scheme", "A100-like (sequential)",
               "H100-like (chunked)"});
  for (const auto& c : cases) {
    const auto p = bench::prepare(c.model, c.dataset, s.inputs);
    for (const char* name : {"none", "ft2"}) {
      const SchemeRef scheme = SchemeRef::parse(name);
      CampaignConfig config;
      config.fault_model = FaultModel::kExponentBit;
      config.trials_per_input = s.trials * 2;
      config.gen_tokens = p.gen_tokens;

      config.chunked_accum = false;
      const auto a100 =
          run_campaign(*p.model, p.inputs, scheme, BoundStore{}, config);
      config.chunked_accum = true;
      const auto h100 =
          run_campaign(*p.model, p.inputs, scheme, BoundStore{}, config);
      table.begin_row()
          .cell(c.model)
          .cell(dataset_name(c.dataset))
          .cell(name)
          .cell(bench::sdc_cell(a100))
          .cell(bench::sdc_cell(h100));
    }
  }
  table.print(std::cout);

  std::cout << "\nwhere the GPUs DO differ (modeled inference time, QA):\n";
  Table timing({"model", "A100 seconds", "H100 seconds"});
  for (const char* name : {"OPT-6.7B", "Qwen2-7B"}) {
    const auto& m = pm::paper_model(name);
    timing.begin_row()
        .cell(name)
        .num(pm::inference_seconds(m, pm::a100(), 256, 60), 2)
        .num(pm::inference_seconds(m, pm::h100(), 256, 60), 2);
  }
  timing.print(std::cout);
  std::cout << "paper: SDC rates on H100 equal A100 (FT2 ~0.33% on both); "
               "only execution time differs\n";
  return 0;
}
