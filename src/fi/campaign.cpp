#include "fi/campaign.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "common/thread_pool.hpp"
#include "data/matcher.hpp"
#include "fi/trace.hpp"
#include "protect/drift.hpp"
#include "serve/serve_engine.hpp"

namespace ft2 {

std::vector<int> truncate_at_eos(const std::vector<int>& tokens) {
  std::vector<int> out;
  for (int t : tokens) {
    if (t == Vocab::kEos) break;
    out.push_back(t);
  }
  return out;
}

Outcome classify_outcome(const std::vector<int>& generated,
                         const EvalInput& input) {
  const auto gen = truncate_at_eos(generated);
  const auto ref = truncate_at_eos(input.reference_tokens);
  if (gen == ref) return Outcome::kMaskedIdentical;
  const std::string text = Vocab::shared().decode(gen);
  if (contains_reference(text, input.sample.reference)) {
    return Outcome::kMaskedSemantic;
  }
  return Outcome::kSdc;
}

namespace {

std::vector<int> make_prompt(const Sample& sample) {
  std::vector<int> prompt;
  prompt.reserve(sample.prompt_tokens.size() + 1);
  prompt.push_back(Vocab::kBos);
  prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                sample.prompt_tokens.end());
  return prompt;
}

GenerateOptions fixed_length_options(std::size_t gen_tokens, ValueType vtype,
                                     bool chunked_accum = false,
                                     std::size_t prefill_chunk = 32) {
  GenerateOptions options;
  options.max_new_tokens = gen_tokens;
  options.eos_token = -1;  // fixed-length generation, as in the paper
  options.fp16 = vtype == ValueType::kF16;
  options.chunked_accum = chunked_accum;
  options.prefill_chunk = prefill_chunk;
  return options;
}

/// Buckets for campaign.prefix.reused_positions and
/// campaign.prefix.suffix_saved_positions: powers of two up to 2048 skipped
/// positions per trial.
std::span<const double> reused_positions_buckets() {
  static const std::vector<double> buckets = exponential_buckets(1.0, 2.0, 12);
  return buckets;
}

/// Per-trial scheme factory: every trial (and every prefix recording)
/// drives a fresh DetectionScheme instance, so scheme-private state never
/// leaks across trials and any registered scheme runs the same machinery.
using SchemeFactory = std::function<std::unique_ptr<DetectionScheme>()>;

CampaignResult run_campaign_range_impl(
    const TransformerLM& model, const std::vector<EvalInput>& inputs,
    const std::string& scheme_display, const SchemeFactory& make_scheme,
    const CampaignConfig& config, std::size_t first_trial,
    std::size_t last_trial, const TrialCallback& on_trial);

}  // namespace

std::vector<EvalInput> prepare_eval_inputs(const TransformerLM& model,
                                           const std::vector<Sample>& samples,
                                           std::size_t gen_tokens,
                                           bool only_correct,
                                           ThreadPool* pool) {
  std::vector<EvalInput> generated(samples.size());
  if (!samples.empty()) {
    ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
    const GenerateOptions options =
        fixed_length_options(gen_tokens, ValueType::kF16);
    // One InferenceSession per contiguous chunk (≈ one per worker), so the
    // cache/workspace allocation amortizes over the chunk instead of being
    // paid per sample. Each slot is written exactly once, preserving input
    // order at any pool size.
    const std::size_t n_chunks =
        std::min(samples.size(), std::max<std::size_t>(1, p.size()));
    const std::size_t per_chunk = (samples.size() + n_chunks - 1) / n_chunks;
    p.parallel_for(0, n_chunks, [&](std::size_t c) {
      InferenceSession session(model);
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(samples.size(), begin + per_chunk);
      for (std::size_t i = begin; i < end; ++i) {
        EvalInput& input = generated[i];
        input.sample = samples[i];
        input.prompt = make_prompt(samples[i]);
        const auto result = session.generate(input.prompt, options);
        input.reference_tokens = result.tokens;
        const std::string text =
            Vocab::shared().decode(truncate_at_eos(result.tokens));
        input.fault_free_correct =
            contains_reference(text, samples[i].reference);
      }
    });
  }
  std::vector<EvalInput> inputs;
  inputs.reserve(generated.size());
  for (auto& input : generated) {
    if (only_correct && !input.fault_free_correct) continue;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeSpec& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial) {
  return run_campaign_range(model, inputs, scheme, offline_bounds, config, 0,
                            inputs.size() * config.trials_per_input,
                            on_trial);
}

CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeSpec& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial) {
  return run_campaign_range_impl(
      model, inputs, scheme.name,
      [&] {
        return std::make_unique<RangeRestrictScheme>(model.config(), scheme,
                                                     offline_bounds);
      },
      config, first_trial, last_trial, on_trial);
}

CampaignResult run_campaign(const TransformerLM& model,
                            const std::vector<EvalInput>& inputs,
                            const SchemeRef& scheme,
                            const BoundStore& offline_bounds,
                            const CampaignConfig& config,
                            const TrialCallback& on_trial) {
  return run_campaign_range(model, inputs, scheme, offline_bounds, config, 0,
                            inputs.size() * config.trials_per_input, on_trial);
}

CampaignResult run_campaign_range(const TransformerLM& model,
                                  const std::vector<EvalInput>& inputs,
                                  const SchemeRef& scheme,
                                  const BoundStore& offline_bounds,
                                  const CampaignConfig& config,
                                  std::size_t first_trial,
                                  std::size_t last_trial,
                                  const TrialCallback& on_trial) {
  return run_campaign_range_impl(
      model, inputs, scheme.display(),
      [&] { return scheme.instantiate(model.config(), offline_bounds); },
      config, first_trial, last_trial, on_trial);
}

namespace {

CampaignResult run_campaign_range_impl(
    const TransformerLM& model, const std::vector<EvalInput>& inputs,
    const std::string& scheme_display, const SchemeFactory& make_scheme,
    const CampaignConfig& config, std::size_t first_trial,
    std::size_t last_trial, const TrialCallback& on_trial) {
  FT2_CHECK(!inputs.empty());
  FT2_CHECK(config.faults_per_trial >= 1);
  const std::size_t total = inputs.size() * config.trials_per_input;
  FT2_CHECK_MSG(first_trial <= last_trial && last_trial <= total,
                "trial range [" << first_trial << ", " << last_trial
                                << ") outside campaign of " << total);
  const FaultSiteSpace site_space(model.config());
  std::vector<Outcome> outcomes(last_trial - first_trial,
                                Outcome::kNotInjected);
  std::mutex callback_mutex;
  ThreadPool& pool =
      config.pool != nullptr ? *config.pool : ThreadPool::global();
  const GenerateOptions trial_options =
      fixed_length_options(config.gen_tokens, config.vtype,
                           config.chunked_accum, config.prefill_chunk);

  // Prefix reuse: one fault-free recording per input in the trial range —
  // the trial-identical generation (protection hook attached, no fault)
  // with its KV rows, online bounds and per-boundary hook state captured —
  // so decode-phase trials fork from it instead of replaying the prefix.
  // The recording hooks publish NO metrics; each forked trial re-publishes
  // the skipped prefix's protect.* increments on restore, and the skipped
  // suffix's when it rejoins the recording, keeping registry totals
  // bit-identical to full replay. With first_token_only every fault lands
  // in the prefill and reuse never applies, so skip the recordings.
  struct PrefixRecording {
    SessionSnapshot snap;
    std::vector<ProtectionState> hook_at;  ///< per token boundary
    /// detect_after[b]: the first position after boundary b at which the
    /// recording corrected anything (-1: none) — the first-detect position
    /// of a suffix replayed from b.
    std::vector<long long> detect_after;
    /// With drift_monitor: the recording's headroom samples in dispatch
    /// order, and how many of them precede each token boundary.
    std::vector<HeadroomSample> headroom;
    std::vector<std::size_t> headroom_at;
  };
  std::vector<PrefixRecording> recordings;
  const bool reuse =
      config.prefix_reuse && !config.first_token_only && first_trial < last_trial;
  if (reuse) {
    recordings.resize(inputs.size());
    const std::size_t first_input = first_trial / config.trials_per_input;
    const std::size_t last_input =
        (last_trial - 1) / config.trials_per_input + 1;
    pool.parallel_for(first_input, last_input, [&](std::size_t i) {
      PrefixRecording& rec = recordings[i];
      ProtectionHook protection(model.config(), make_scheme(), ObsSinks{});
      protection.set_clip_capture(true);
      MetricsRegistry unpublished;  // the recording's monitor only logs
      std::optional<BoundDriftMonitor> drift;
      if (config.drift_monitor) {
        drift.emplace(protection,
                      DriftMonitorOptions{0.10, {&unpublished, nullptr}});
        drift->set_sample_log(&rec.headroom);
      }
      InferenceSession session(model);
      std::vector<HookRegistration> regs;
      regs.push_back(session.hooks().add(protection));
      if (drift.has_value()) regs.push_back(session.hooks().add(*drift));
      rec.hook_at.reserve(config.gen_tokens);
      session.generate_recorded(
          inputs[i].prompt, trial_options, rec.snap, [&](std::size_t) {
            rec.hook_at.push_back(protection.capture_state());
            rec.headroom_at.push_back(rec.headroom.size());
          });
      // The forward between boundaries b and b + 1 runs at position
      // prompt_len + b.
      rec.detect_after.assign(rec.hook_at.size(), -1);
      for (std::size_t b = rec.hook_at.size() - 1; b-- > 0;) {
        rec.detect_after[b] =
            rec.hook_at[b + 1].corrections() > rec.hook_at[b].corrections()
                ? static_cast<long long>(rec.snap.prompt_len + b)
                : rec.detect_after[b + 1];
      }
    });
  }


  // campaign.* handles are resolved once here (the registry mutex is only
  // taken at registration), so trial threads touch nothing but striped
  // atomics. All handles stay inert when metrics are disabled.
  MetricsRegistry* reg =
      config.obs.metrics != nullptr ? config.obs.metrics : default_metrics();
  struct CampaignMetrics {
    Counter trials;
    std::array<Counter, 4> outcome;  ///< indexed by static_cast<int>(Outcome)
    std::array<Counter, kLayerKindCount> site;
    HistogramMetric trial_ms;
    Counter prefix_hit;   ///< trials forked from the fault-free snapshot
    Counter prefix_miss;  ///< trials that fell back to the full run
    HistogramMetric prefix_reused;  ///< positions skipped per forked trial
    Counter suffix_hit;  ///< forked trials that rejoined the recording
    HistogramMetric suffix_saved;  ///< decode forwards skipped per rejoin
  } cm;
  if (reg != nullptr) {
    cm.trials = reg->counter("campaign.trials");
    for (Outcome o : {Outcome::kMaskedIdentical, Outcome::kMaskedSemantic,
                      Outcome::kSdc, Outcome::kNotInjected}) {
      cm.outcome[static_cast<std::size_t>(o)] =
          reg->counter(std::string("campaign.outcome.") + outcome_name(o));
    }
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      cm.site[k] = reg->counter(
          std::string("campaign.site.") +
          std::string(layer_kind_name(static_cast<LayerKind>(k))));
    }
    cm.trial_ms = reg->histogram("campaign.trial_ms", latency_ms_buckets());
    if (config.prefix_reuse) {
      cm.prefix_hit = reg->counter("campaign.prefix.hit");
      cm.prefix_miss = reg->counter("campaign.prefix.miss");
      cm.prefix_reused = reg->histogram("campaign.prefix.reused_positions",
                                        reused_positions_buckets());
      cm.suffix_hit = reg->counter("campaign.prefix.suffix_hit");
      cm.suffix_saved = reg->histogram(
          "campaign.prefix.suffix_saved_positions", reused_positions_buckets());
    }
  }

  Tracer* tracer =
      config.obs.tracer != nullptr ? config.obs.tracer : &Tracer::global();

  // Records reach on_trial in trial order: a finished trial waits in
  // `finished` (under callback_mutex) until every earlier one has been
  // delivered. Trials are handed out one at a time from `next_trial`, so
  // only trials finished ahead of a still-running one ever wait there.
  std::atomic<std::size_t> next_trial{first_trial};
  std::size_t next_record = first_trial;  // guarded by callback_mutex
  std::map<std::size_t, TrialRecord> finished;  // guarded by callback_mutex
  const auto run_trial = [&](std::size_t trial) {
    using TrialClock = std::chrono::steady_clock;
    // Trials are timed for the histogram AND for TrialRecord::trial_ms;
    // the clock reads are nanoseconds against millisecond-scale trials.
    const bool timed = cm.trial_ms.enabled() || static_cast<bool>(on_trial);
    const TrialClock::time_point trial_start =
        timed ? TrialClock::now() : TrialClock::time_point{};
    const std::size_t input_idx = trial / config.trials_per_input;
    const EvalInput& input = inputs[input_idx];
    TraceSpan trial_span = tracer->span("campaign.trial");
    if (trial_span.active()) {
      trial_span.tag("trial", std::to_string(trial))
          .tag("input", std::to_string(input_idx));
    }

    PhiloxStream rng(config.seed, trial);
    std::vector<InjectorHook> injectors;
    injectors.reserve(config.faults_per_trial);
    for (std::size_t f = 0; f < config.faults_per_trial; ++f) {
      injectors.emplace_back(
          site_space.sample(input.prompt.size(), config.gen_tokens,
                            config.fault_model, config.vtype, rng,
                            config.first_token_only));
    }

    ProtectionHook protection(model.config(), make_scheme(),
                              ObsSinks{reg, nullptr});
    protection.set_clip_capture(config.capture_clips);
    // The drift monitor registers AFTER protection so it observes
    // post-correction values; it never mutates them, so everything the
    // trial reports stays bit-identical with it on or off.
    std::optional<BoundDriftMonitor> drift;
    if (config.drift_monitor) {
      drift.emplace(protection, DriftMonitorOptions{0.10, ObsSinks{reg, nullptr}});
    }
    InferenceSession session(model);
    std::vector<HookRegistration> regs;
    regs.reserve(injectors.size() + 2);
    for (auto& injector : injectors) regs.push_back(session.hooks().add(injector));
    regs.push_back(session.hooks().add(protection));
    if (drift.has_value()) regs.push_back(session.hooks().add(*drift));

    // Prefix reuse: a single-fault trial is bit-identical to the fault-free
    // recording up to its first injection position, so decode-phase trials
    // fork from the snapshot there. Prefill-phase faults (any plan inside
    // the first-token phase) replay the full run. Injection positions past
    // the last executed forward clamp to the final boundary: zero forwards
    // run, the injector never fires, and the restored hook state carries
    // the full run's detections — exactly what full replay produces.
    //
    // Suffix reuse: once every injector has fired, the session compares
    // its own state with the recording after each forward (see
    // InferenceSession::resume_from) and asks `rejoined` about the hooks.
    // A fault masked within its own steps leaves the trial's K/V rows,
    // tokens and scheme state equal to the recording's, so the rest of the
    // run is the recording's: the session takes its suffix and the
    // protection hook replays the suffix's dispatches. The drift monitor
    // replays the recording's headroom samples for the skipped prefix and
    // suffix, so its histograms match a full run's bit for bit.
    GenerateResult result;
    bool forked = false;
    if (reuse) {
      const PrefixRecording& rec = recordings[input_idx];
      std::size_t first_pos = std::numeric_limits<std::size_t>::max();
      for (const auto& injector : injectors) {
        first_pos = std::min(first_pos, injector.plan().position);
      }
      if (rec.snap.valid() && first_pos >= rec.snap.prompt_len) {
        const std::size_t fork_pos =
            std::min(first_pos, rec.snap.last_boundary());
        const std::span<const HeadroomSample> headroom(rec.headroom);
        const auto rejoined = [&](std::size_t b) {
          for (const auto& injector : injectors) {
            if (!injector.fired()) return false;
          }
          const bool same =
              protection.scheme().state_matches(rec.hook_at[b].scheme.get());
          // A yes ends the run: replay the suffix now, before the monitor's
          // generation end flushes its counts.
          if (same && drift) {
            drift->replay(headroom.subspan(rec.headroom_at[b]));
          }
          return same;
        };
        result = session.resume_from(
            rec.snap, fork_pos,
            [&] {
              const std::size_t b = fork_pos - rec.snap.prompt_len;
              protection.restore_state(rec.hook_at[b]);
              if (drift) drift->replay(headroom.first(rec.headroom_at[b]));
            },
            rejoined);
        forked = true;
        cm.prefix_hit.inc();
        cm.prefix_reused.observe(static_cast<double>(fork_pos));
        if (const std::size_t b = result.rejoined_at; b != 0) {
          protection.replay(rec.hook_at[b], rec.hook_at.back(),
                            rec.detect_after[b]);
          cm.suffix_hit.inc();
          cm.suffix_saved.observe(static_cast<double>(
              rec.snap.result.positions_run - rec.snap.prompt_len - b));
        }
      }
    }
    if (!forked) {
      result = session.generate(input.prompt, trial_options);
      if (config.prefix_reuse) cm.prefix_miss.inc();
    }
    bool fired = false;
    for (const auto& injector : injectors) fired |= injector.fired();
    const Outcome outcome = fired ? classify_outcome(result.tokens, input)
                                  : Outcome::kNotInjected;
    outcomes[trial - first_trial] = outcome;
    if (trial_span.active()) {
      trial_span.tag("outcome", outcome_name(outcome))
          .tag("fork", forked ? "hit" : "miss");
    }
    cm.trials.inc();
    cm.outcome[static_cast<std::size_t>(outcome)].inc();
    for (const auto& injector : injectors) {
      cm.site[static_cast<std::size_t>(injector.plan().site.kind)].inc();
    }
    double elapsed_ms = 0.0;
    if (timed) {
      elapsed_ms = std::chrono::duration<double, std::milli>(TrialClock::now() -
                                                             trial_start)
                       .count();
      cm.trial_ms.observe(elapsed_ms);
    }
    if (on_trial) {
      TrialRecord record;
      record.trial = trial;
      record.input_index = input_idx;
      record.plan = injectors.front().plan();
      record.outcome = outcome;
      record.detections = protection.stats().oob_corrected +
                          protection.stats().nan_corrected;
      record.generated_text =
          Vocab::shared().decode(truncate_at_eos(result.tokens));
      record.fault_model = config.fault_model;
      record.fired = fired;
      record.nan_detections = protection.stats().nan_corrected;
      record.oob_detections = protection.stats().oob_corrected;
      record.detect_position = protection.first_detect_position();
      record.injected_original = injectors.front().original_value();
      record.injected_value = injectors.front().injected_value();
      if (config.capture_clips) record.clips = protection.clip_events();
      record.scheme = scheme_display;
      record.trial_ms = elapsed_ms;
      std::lock_guard lock(callback_mutex);
      finished.emplace(trial, std::move(record));
      while (!finished.empty() && finished.begin()->first == next_record) {
        on_trial(finished.begin()->second);
        finished.erase(finished.begin());
        ++next_record;
      }
    }
  };
  const std::size_t tasks =
      std::min(std::max<std::size_t>(pool.size(), 1), last_trial - first_trial);
  pool.parallel_for(0, tasks, [&](std::size_t) {
    for (std::size_t trial = next_trial++; trial < last_trial;
         trial = next_trial++) {
      run_trial(trial);
    }
  });

  CampaignResult result;
  for (const Outcome o : outcomes) result.add(o);
  return result;
}

}  // namespace

double fault_free_correct_fraction(const TransformerLM& model,
                                   const std::vector<EvalInput>& inputs,
                                   const SchemeSpec& scheme,
                                   const BoundStore& offline_bounds,
                                   std::size_t gen_tokens) {
  FT2_CHECK(!inputs.empty());
  // All inputs run through one continuous-batching engine: decode steps for
  // the whole batch share each weight matrix load. Bit-exact with the serial
  // per-session loop (each request keeps its own protection hook and cache),
  // so the reported fraction is identical — only faster.
  ServeEngine engine(model);
  const GenerateOptions options =
      fixed_length_options(gen_tokens, ValueType::kF16);
  std::vector<ProtectionHook> protections;
  protections.reserve(inputs.size());  // chains hold raw hook pointers
  std::vector<HookRegistration> regs;
  regs.reserve(inputs.size());
  std::vector<RequestId> ids;
  ids.reserve(inputs.size());
  for (const auto& input : inputs) {
    protections.emplace_back(model.config(), scheme, offline_bounds);
    const RequestId id = engine.submit(input.prompt, options);
    regs.push_back(engine.hooks(id).add(protections.back()));
    ids.push_back(id);
  }
  engine.run();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string text = Vocab::shared().decode(
        truncate_at_eos(engine.result(ids[i]).tokens));
    if (contains_reference(text, inputs[i].sample.reference)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

}  // namespace ft2
