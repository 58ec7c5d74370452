#include "protect/scheme.hpp"

#include <algorithm>
#include <cmath>

#include "protect/critical.hpp"
#include "protect/detection_scheme.hpp"
#include "tensor/dispatch.hpp"

namespace ft2 {

bool SchemeSpec::covers(LayerKind k) const {
  return std::find(covered.begin(), covered.end(), k) != covered.end();
}

SchemeSpec scheme_spec(SchemeKind kind, const ModelConfig& config) {
  SchemeSpec spec;
  auto keep_present = [&config](std::vector<LayerKind> kinds) {
    std::vector<LayerKind> out;
    for (LayerKind k : kinds) {
      if (config.has_layer(k)) out.push_back(k);
    }
    return out;
  };

  switch (kind) {
    case SchemeKind::kNone:
      spec.name = "none";
      break;
    case SchemeKind::kRanger:
      spec.name = "ranger";
      spec.covered = {LayerKind::kMlpAct};
      spec.policy = ClipPolicy::kToZero;
      spec.correct_nan = false;
      spec.needs_offline_bounds = true;
      break;
    case SchemeKind::kMaxiMals:
      spec.name = "maximals";
      spec.covered = keep_present(
          {LayerKind::kOutProj, LayerKind::kFc2, LayerKind::kDownProj});
      spec.policy = ClipPolicy::kToZero;
      spec.correct_nan = true;
      spec.bound_scale = 1.25f;
      spec.needs_offline_bounds = true;
      break;
    case SchemeKind::kGlobalClipper:
      spec.name = "global_clipper";
      spec.covered = {LayerKind::kVProj, LayerKind::kOutProj};
      spec.policy = ClipPolicy::kToZero;
      spec.correct_nan = true;
      spec.needs_offline_bounds = true;
      break;
    case SchemeKind::kFt2:
      spec.name = "ft2";
      spec.covered = critical_layers(config);
      spec.policy = ClipPolicy::kToBound;
      spec.correct_nan = true;
      spec.bound_scale = 2.0f;
      spec.online = true;
      break;
    case SchemeKind::kFt2Offline:
      spec.name = "ft2_offline";
      spec.covered = critical_layers(config);
      spec.policy = ClipPolicy::kToBound;
      spec.correct_nan = true;
      spec.needs_offline_bounds = true;
      break;
  }
  return spec;
}

ProtectionHook::ProtectionHook(const ModelConfig& config,
                               std::unique_ptr<DetectionScheme> scheme,
                               ObsSinks obs)
    : config_(config), scheme_(std::move(scheme)) {
  FT2_CHECK_MSG(scheme_ != nullptr, "ProtectionHook requires a scheme");
  for (LayerKind k : scheme_->spec().covered) {
    covered_mask_[static_cast<std::size_t>(k)] = true;
  }
  if (obs.metrics != nullptr) {
    for (LayerKind k : scheme_->spec().covered) {
      KindMetrics& km = kind_metrics_[static_cast<std::size_t>(k)];
      const std::string kind(layer_kind_name(k));
      km.checked = obs.metrics->counter("protect.checked." + kind);
      km.nan = obs.metrics->counter("protect.nan." + kind);
      km.oob = obs.metrics->counter("protect.oob." + kind);
      km.clip_magnitude = obs.metrics->histogram(
          "protect.clip_magnitude." + kind, magnitude_buckets());
    }
    scheme_->bind_metrics(*obs.metrics);
  }
}

ProtectionHook::ProtectionHook(const ModelConfig& config, SchemeSpec spec,
                               BoundStore offline_bounds,
                               MetricsRegistry* metrics)
    : ProtectionHook(config,
                     std::make_unique<RangeRestrictScheme>(
                         config, std::move(spec), std::move(offline_bounds)),
                     ObsSinks{metrics, nullptr}) {}

ProtectionHook::~ProtectionHook() = default;

ProtectionStats ProtectionHook::stats() const {
  ProtectionStats total;
  for (const ProtectionStats& s : kind_stats_) total.merge(s);
  return total;
}

const SchemeSpec& ProtectionHook::spec() const { return scheme_->spec(); }

const BoundStore& ProtectionHook::online_bounds() const {
  return scheme_->online_bounds();
}

const BoundStore& ProtectionHook::offline_bounds() const {
  return scheme_->offline_bounds();
}

void ProtectionHook::on_generation_begin() {
  scheme_->begin_generation();
  clip_log_.clear();
  first_detect_pos_ = -1;
}

ProtectionState ProtectionHook::capture_state() const {
  ProtectionState state;
  state.kind_stats = kind_stats_;
  state.clips = clip_log_;
  state.first_detect_pos = first_detect_pos_;
  state.scheme = scheme_->capture_state();
  return state;
}

void ProtectionHook::restore_state(const ProtectionState& state) {
  scheme_->restore_state(state.scheme.get());
  replay(ProtectionState{}, state, state.first_detect_pos);
}

void ProtectionHook::replay(const ProtectionState& from,
                            const ProtectionState& to,
                            long long first_detect) {
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const ProtectionStats& a = from.kind_stats[k];
    const ProtectionStats& b = to.kind_stats[k];
    const ProtectionStats d{b.values_checked - a.values_checked,
                            b.nan_corrected - a.nan_corrected,
                            b.oob_corrected - a.oob_corrected};
    if (d.values_checked == 0 && d.nan_corrected == 0 &&
        d.oob_corrected == 0) {
      continue;
    }
    kind_stats_[k].merge(d);
    // Publish the skipped dispatches' increments so the registry counters
    // advance exactly as a full from-scratch run would have.
    KindMetrics& km = kind_metrics_[k];
    km.checked.inc(d.values_checked);
    km.nan.inc(d.nan_corrected);
    km.oob.inc(d.oob_corrected);
  }
  FT2_CHECK(from.clips.size() <= to.clips.size());
  for (std::size_t i = from.clips.size(); i < to.clips.size(); ++i) {
    const ClipEvent& clip = to.clips[i];
    kind_metrics_[static_cast<std::size_t>(clip.kind)].clip_magnitude.observe(
        std::abs(static_cast<double>(clip.original)));
    if (capture_clips_) clip_log_.push_back(clip);
  }
  if (first_detect_pos_ < 0) first_detect_pos_ = first_detect;
}

namespace {

/// Feeds out-of-bound originals into one kind's clip-magnitude histogram
/// and, when a capture log is supplied, records positioned ClipEvents for
/// ProtectionState / campaign flight records.
class MagnitudeObserver final : public ClipObserver {
 public:
  MagnitudeObserver(HistogramMetric hist, LayerKind kind,
                    std::size_t base_position, std::size_t row_width,
                    std::vector<ClipEvent>* log)
      : hist_(hist),
        kind_(kind),
        base_position_(base_position),
        row_width_(row_width),
        log_(log) {}
  void on_oob(float original, std::size_t index) override {
    hist_.observe(std::abs(static_cast<double>(original)));
    if (log_ != nullptr) {
      log_->push_back(
          ClipEvent{kind_, base_position_ + index / row_width_, original});
    }
  }

 private:
  HistogramMetric hist_;
  LayerKind kind_;
  std::size_t base_position_;
  std::size_t row_width_;
  std::vector<ClipEvent>* log_;
};

}  // namespace

void ProtectionHook::on_output(const HookContext& ctx,
                               std::span<float> values) {
  const std::size_t kind = static_cast<std::size_t>(ctx.site.kind);
  if (!covered_mask_[kind]) return;
  ProtectionStats& tally = kind_stats_[kind];
  KindMetrics& km = kind_metrics_[kind];

  // The scheme tallies per call into a delta so the registry counters
  // advance by exactly what this dispatch corrected; merging the delta
  // into the per-kind tally reproduces single-struct accounting bit for
  // bit (integer adds in dispatch order).
  ProtectionStats delta;
  MagnitudeObserver observer(km.clip_magnitude, ctx.site.kind, ctx.position,
                             ctx.width(values.size()),
                             capture_clips_ ? &clip_log_ : nullptr);
  scheme_->detect_and_correct(
      ctx, values, delta,
      km.clip_magnitude.enabled() || capture_clips_ ? &observer : nullptr);
  if ((delta.nan_corrected != 0 || delta.oob_corrected != 0) &&
      first_detect_pos_ < 0) {
    // Dispatches arrive in nondecreasing position order, so the first
    // detecting dispatch carries the earliest position (span-start
    // granularity during chunked prefill).
    first_detect_pos_ = static_cast<long long>(ctx.position);
  }
  tally.merge(delta);
  km.checked.inc(delta.values_checked);
  km.nan.inc(delta.nan_corrected);
  km.oob.inc(delta.oob_corrected);
}

bool ProtectionHook::plan_fused(const HookContext& ctx, KernelEpilogue& epi) {
  const std::size_t kind = static_cast<std::size_t>(ctx.site.kind);
  if (!covered_mask_[kind]) return false;
  if (!scheme_->plan_epilogue(ctx, epi)) return false;
  // Per-event originals are only needed where the hook path would have
  // passed an observer (clip-magnitude histogram live, or clip capture on).
  epi.record_events =
      kind_metrics_[kind].clip_magnitude.enabled() || capture_clips_;
  return true;
}

void ProtectionHook::absorb_fused(const HookContext& ctx,
                                  std::span<const float> values,
                                  const KernelEpilogue& epi,
                                  const EpilogueTally& tally) {
  // Mirror of on_output's accounting, fed from the kernel tally instead of
  // detect_and_correct. Kept in lockstep: same delta merge order, same
  // counter increments, same first-detect rule, same event attribution
  // (position = ctx.position + flat_index / row_width).
  const std::size_t kind = static_cast<std::size_t>(ctx.site.kind);
  ProtectionStats& kind_tally = kind_stats_[kind];
  KindMetrics& km = kind_metrics_[kind];

  ProtectionStats delta;
  if (epi.protect != KernelEpilogue::Protect::kNone) {
    delta.values_checked = values.size();
  }
  delta.nan_corrected = tally.nan;
  delta.oob_corrected = tally.oob;
  scheme_->absorb_epilogue(ctx, values, epi, tally);
  if ((delta.nan_corrected != 0 || delta.oob_corrected != 0) &&
      first_detect_pos_ < 0) {
    first_detect_pos_ = static_cast<long long>(ctx.position);
  }
  kind_tally.merge(delta);
  km.checked.inc(delta.values_checked);
  km.nan.inc(delta.nan_corrected);
  km.oob.inc(delta.oob_corrected);
  const std::size_t row_width = ctx.width(values.size());
  for (const EpilogueEvent& event : tally.events) {
    km.clip_magnitude.observe(std::abs(static_cast<double>(event.original)));
    if (capture_clips_) {
      clip_log_.push_back(ClipEvent{ctx.site.kind,
                                    ctx.position + event.index / row_width,
                                    event.original});
    }
  }
}

std::size_t ProtectionHook::bound_memory_bytes() const {
  return scheme_->state_memory_bytes(config_);
}

std::size_t ProtectionHook::protected_layer_count() const {
  return spec().covered.size() * config_.n_blocks;
}

}  // namespace ft2
