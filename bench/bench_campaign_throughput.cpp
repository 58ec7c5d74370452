// Campaign throughput with fault-free prefix reuse on vs. off.
//
// Runs the same decode-phase fault-injection campaign twice — once replaying
// every trial from token 0 and once forking each trial from the fault-free
// snapshot at its first injection position — and reports trials/sec for
// both. Per-trial records are compared first: prefix reuse is a pure
// throughput knob (like `prefill_chunk`), bit-exact by construction, so any
// outcome/plan/detection mismatch fails the run before timing is reported.
//
// Flags:
//   --smoke   small sizes for the tier-1 ctest run (same acceptance bar)
//   --json    machine-readable result on stdout (the BENCH baseline format)
// Environment (ignored under --smoke):
//   FT2_BENCH_PROMPT   prompt length            (default 64)
//   FT2_BENCH_INPUTS   evaluation inputs        (default 4)
//   FT2_TRIALS         trials per input         (default 25)
//   FT2_BENCH_REPS     timed repetitions, best-of (default 2)
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"

using namespace ft2;

namespace {

TransformerLM bench_model() {
  // GEMM-heavy enough that skipped forward positions dominate the
  // bookkeeping cost of snapshot/fork.
  ModelConfig c;
  c.name = "bench-campaign";
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 128;
  c.n_heads = 8;
  c.n_blocks = 4;
  c.d_ff = 384;
  c.max_seq = 256;
  Xoshiro256 rng(2026);
  return TransformerLM(c, init_weights(c, rng));
}

/// SynthQA samples padded to a fixed prompt length — references come from
/// prepare_eval_inputs, so inputs are realistic campaign inputs with a
/// prefill long enough to be worth skipping.
std::vector<EvalInput> bench_inputs(const TransformerLM& model,
                                    std::size_t n_inputs,
                                    std::size_t prompt_len,
                                    std::size_t gen_tokens) {
  auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(n_inputs, 77);
  const int vocab = static_cast<int>(model.config().vocab_size);
  for (Sample& s : samples) {
    std::vector<int> padded;
    for (std::size_t i = 0; padded.size() + s.prompt_tokens.size() + 1 <
                            prompt_len;
         ++i) {
      padded.push_back(static_cast<int>(i * 13 + 5) % vocab);
    }
    padded.insert(padded.end(), s.prompt_tokens.begin(),
                  s.prompt_tokens.end());
    s.prompt_tokens = std::move(padded);
  }
  return prepare_eval_inputs(model, samples, gen_tokens, false);
}

std::vector<TrialRecord> sorted_records(std::vector<TrialRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.trial < b.trial;
            });
  return records;
}

struct TimedRun {
  double seconds = 0.0;
  CampaignResult result;
  std::vector<TrialRecord> records;
  std::uint64_t prefix_hits = 0;
  std::uint64_t prefix_misses = 0;
};

TimedRun time_campaign(const TransformerLM& model,
                       const std::vector<EvalInput>& inputs,
                       const SchemeSpec& spec, CampaignConfig config,
                       bool prefix_reuse, std::size_t reps) {
  config.prefix_reuse = prefix_reuse;
  TimedRun best;
  for (std::size_t r = 0; r < reps; ++r) {
    MetricsRegistry registry;
    config.obs.metrics = &registry;
    std::vector<TrialRecord> trace;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result =
        run_campaign(model, inputs, spec, BoundStore{}, config,
                     [&](const TrialRecord& rec) { trace.push_back(rec); });
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best.seconds) {
      best.seconds = s;
      best.result = result;
      best.records = sorted_records(std::move(trace));
      const auto snap = registry.snapshot();
      best.prefix_hits = snap.counter_value("campaign.prefix.hit");
      best.prefix_misses = snap.counter_value("campaign.prefix.miss");
    }
  }
  return best;
}

bool same_plan(const FaultPlan& a, const FaultPlan& b) {
  return a.position == b.position && a.site == b.site && a.neuron == b.neuron &&
         a.vtype == b.vtype && a.in_first_token == b.in_first_token &&
         a.flips.count == b.flips.count && a.flips.bits == b.flips.bits;
}

bool identical(const TimedRun& a, const TimedRun& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t t = 0; t < a.records.size(); ++t) {
    const TrialRecord& x = a.records[t];
    const TrialRecord& y = b.records[t];
    if (x.trial != y.trial || x.input_index != y.input_index ||
        x.outcome != y.outcome || x.detections != y.detections ||
        x.generated_text != y.generated_text || !same_plan(x.plan, y.plan)) {
      return false;
    }
  }
  return a.result.trials == b.result.trials && a.result.sdc == b.result.sdc &&
         a.result.masked_identical == b.result.masked_identical &&
         a.result.masked_semantic == b.result.masked_semantic &&
         a.result.not_injected == b.result.not_injected;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, {{"smoke", false}, {"json", false}});
  const bool smoke = args.has("smoke");
  const bool json = args.has("json");

  const std::size_t prompt_len =
      smoke ? 48 : env_size("FT2_BENCH_PROMPT", 64);
  const std::size_t n_inputs = smoke ? 2 : env_size("FT2_BENCH_INPUTS", 4);
  const std::size_t trials = smoke ? 6 : env_size("FT2_TRIALS", 25);
  const std::size_t reps = smoke ? 1 : env_size("FT2_BENCH_REPS", 2);
  const std::size_t gen_tokens = 16;  // acceptance bar: >= 16

  if (!json) {
    bench::print_header("campaign throughput (fault-free prefix reuse)",
                        "engine (decode-phase single-fault campaign)");
  }

  const TransformerLM model = bench_model();
  const auto inputs = bench_inputs(model, n_inputs, prompt_len, gen_tokens);
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = trials;
  config.gen_tokens = gen_tokens;
  config.seed = 11;
  ThreadPool pool(1);  // the acceptance bar is single-core
  config.pool = &pool;

  const auto off = time_campaign(model, inputs, spec, config, false, reps);
  const auto on = time_campaign(model, inputs, spec, config, true, reps);

  const bool bit_exact = identical(off, on);
  const double total_trials = static_cast<double>(off.result.trials);
  const double off_tps = total_trials / off.seconds;
  const double on_tps = total_trials / on.seconds;
  const double speedup = off.seconds / on.seconds;
  const bool pass = bit_exact && speedup >= 1.5;

  if (json) {
    Json out = Json::object();
    out["bench"] = "campaign_throughput";
    Json cfg = Json::object();
    cfg["prompt_len"] = static_cast<double>(prompt_len);
    cfg["inputs"] = static_cast<double>(inputs.size());
    cfg["trials_per_input"] = static_cast<double>(trials);
    cfg["gen_tokens"] = static_cast<double>(gen_tokens);
    cfg["scheme"] = spec.name;
    cfg["threads"] = 1.0;
    cfg["smoke"] = smoke;
    out["config"] = cfg;
    Json roff = Json::object();
    roff["seconds"] = off.seconds;
    roff["trials_per_sec"] = off_tps;
    out["reuse_off"] = roff;
    Json ron = Json::object();
    ron["seconds"] = on.seconds;
    ron["trials_per_sec"] = on_tps;
    ron["prefix_hits"] = static_cast<double>(on.prefix_hits);
    ron["prefix_misses"] = static_cast<double>(on.prefix_misses);
    out["reuse_on"] = ron;
    out["speedup"] = speedup;
    out["bit_exact"] = bit_exact;
    out["pass"] = pass;
    std::cout << out.dump() << "\n";
    return pass ? 0 : 1;
  }

  std::cout << "model: d_model=" << model.config().d_model
            << " blocks=" << model.config().n_blocks << ", prompt "
            << prompt_len << " + " << gen_tokens << " decode tokens, "
            << inputs.size() << " inputs x " << trials
            << " trials, best of " << reps << " (single worker)\n\n";

  Table table({"prefix reuse", "seconds", "trials/sec", "prefix hits",
               "prefix misses"});
  table.begin_row().cell("off").num(off.seconds, 3).num(off_tps, 2).cell("-")
      .cell("-");
  table.begin_row().cell("on").num(on.seconds, 3).num(on_tps, 2)
      .count(on.prefix_hits).count(on.prefix_misses);
  table.print(std::cout);

  std::cout << "\ntrial records bit-exact with reuse on vs. off: "
            << (bit_exact ? "yes" : "NO — BUG") << "\n";
  std::cout << "speedup: " << speedup << "x ("
            << (speedup >= 1.5 ? "meets" : "BELOW")
            << " the 1.5x acceptance bar)\n";
  return pass ? 0 : 1;
}
