// Domain scenario: a question-answering service wants to know how much a
// transient-fault protection scheme buys. This example runs a small
// statistical fault-injection study on the QA workload, comparing no
// protection against every scheme in the library, with 95% confidence
// intervals — the workflow a reliability engineer would run before
// deploying FT2.
#include <iostream>

#include "core/ft2.hpp"

using namespace ft2;

int main() {
  const std::size_t n_inputs = env_size("FT2_INPUTS", 10);
  const std::size_t trials = env_size("FT2_TRIALS", 40);

  const auto model = ensure_model("opt-sm");
  const auto gen = make_generator(DatasetKind::kSynthQA);
  const std::size_t gen_tokens = generation_tokens(DatasetKind::kSynthQA);

  // Evaluation inputs the model answers correctly without faults.
  const auto samples = gen->generate_many(n_inputs * 2, 2025);
  auto inputs = prepare_eval_inputs(*model, samples, gen_tokens, true);
  if (inputs.size() > n_inputs) inputs.resize(n_inputs);
  std::cout << "QA reliability study: " << inputs.size() << " inputs x "
            << trials << " single-fault trials per scheme, EXP fault model\n\n";

  // Baselines need offline bounds (this is the expensive step FT2 removes).
  OfflineProfileOptions profile;
  profile.n_inputs = 16;
  profile.seed = 999;
  profile.max_new_tokens = gen_tokens;
  const BoundStore bounds = profile_offline_bounds(*model, *gen, profile);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = trials;
  config.gen_tokens = gen_tokens;

  Table table({"scheme", "SDC", "masked (identical)", "masked (semantic)",
               "SDC rate", "95% CI margin"});
  double none_rate = 0.0;
  double ft2_rate = 0.0;
  // Enumerate the scheme registry: any newly registered detector (checksum,
  // adaptive, custom) joins the study without touching this loop.
  for (const std::string& name : all_scheme_names()) {
    const SchemeRef ref{name, {}};
    const auto result = run_campaign(*model, inputs, ref, bounds, config);
    if (name == "none") none_rate = result.sdc_rate();
    if (name == "ft2") ft2_rate = result.sdc_rate();
    table.begin_row()
        .cell(name)
        .count(result.sdc)
        .count(result.masked_identical)
        .count(result.masked_semantic)
        .pct(result.sdc_rate())
        .pct(result.sdc_ci().margin);
  }
  table.print(std::cout);

  if (none_rate > 0.0) {
    std::cout << "\nFT2 SDC-rate reduction vs unprotected: "
              << Table::format_pct(1.0 - ft2_rate / none_rate, 1)
              << " — with no offline profiling at all.\n";
  }
  return 0;
}
