// Figure 13 — the main result: SDC rate of every protection scheme across
// 7 models x 3 datasets x 3 fault models. One table per fault model, one
// row per (model, dataset), one column per scheme; final summary reports
// the average SDC-rate reduction of FT2 (paper: 92.92%).
//
// Model-dataset pairs follow Table 2: every model runs both QA datasets;
// only llama-sm and qwen2-sm run the math dataset (16 pairs total).
#include <iostream>
#include <map>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Main SDC comparison: 7 models x 3 datasets x 3 fault "
                      "models x 6 schemes",
                      "Figure 13");

  struct Cell {
    std::string model;
    DatasetKind dataset;
  };
  std::vector<Cell> cells;
  for (const auto& entry : model_zoo()) {
    for (DatasetKind dataset : entry.tasks) {
      cells.push_back({entry.name, dataset});
    }
  }

  // The figure compares exactly the paper's Table 1 family; newer registry
  // schemes (abft-linear, ft2-adaptive) are not part of Fig. 13.
  const std::string kFigSchemes[] = {
      "none", "ranger", "maximals", "global_clipper", "ft2", "ft2_offline",
  };

  double sum_reduction = 0.0;
  double sum_none = 0.0, sum_ft2 = 0.0, sum_ft2_offline = 0.0;
  std::map<std::string, double> scheme_rate_sum;
  std::size_t reductions = 0;

  for (FaultModel fm : all_fault_models()) {
    std::cout << "\n--- fault model: " << fault_model_name(fm) << " ---\n";
    std::vector<std::string> columns = {"model", "dataset"};
    columns.insert(columns.end(), std::begin(kFigSchemes),
                   std::end(kFigSchemes));
    Table table(columns);
    for (const auto& cell : cells) {
      const auto p = bench::prepare(cell.model, cell.dataset, s.inputs);
      const BoundStore bounds = bench::offline_bounds(
          *p.model, cell.dataset, s.profile_inputs, p.gen_tokens);

      CampaignConfig config;
      config.fault_model = fm;
      config.trials_per_input = s.trials;
      config.gen_tokens = p.gen_tokens;

      table.begin_row().cell(cell.model).cell(dataset_name(cell.dataset));
      double none_rate = 0.0;
      for (const std::string& name : kFigSchemes) {
        const auto result = run_campaign(
            *p.model, p.inputs, SchemeRef::parse(name), bounds, config);
        table.pct(result.sdc_rate(), 2);
        scheme_rate_sum[name] += result.sdc_rate();
        if (name == "none") {
          none_rate = result.sdc_rate();
          sum_none += none_rate;
        }
        if (name == "ft2") {
          sum_ft2 += result.sdc_rate();
          if (none_rate > 0.0) {
            sum_reduction += 1.0 - result.sdc_rate() / none_rate;
            ++reductions;
          }
        }
        if (name == "ft2_offline") {
          sum_ft2_offline += result.sdc_rate();
        }
      }
    }
    table.print(std::cout);
  }

  const double n_cells = static_cast<double>(cells.size() * 3);
  std::cout << "\n=== summary across all " << cells.size() * 3
            << " (model, dataset, fault-model) cells ===\n";
  Table summary({"scheme", "average SDC rate"});
  for (const std::string& name : kFigSchemes) {
    summary.begin_row().cell(name).pct(scheme_rate_sum[name] / n_cells, 3);
  }
  summary.print(std::cout);
  if (reductions > 0) {
    std::cout << "average FT2 SDC-rate reduction: "
              << Table::format_pct(
                     sum_reduction / static_cast<double>(reductions), 2)
              << "  (paper: 92.92%)\n";
  }
  std::cout << "paper averages: none/ranger 2.83%, global_clipper 2.61%, "
               "maximals 0.81%, ft2 0.25%, ft2_offline 0.204%\n";
  return 0;
}
