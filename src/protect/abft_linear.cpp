#include "protect/abft_linear.hpp"

#include <cmath>

namespace ft2 {

namespace {

/// Boundary snapshot: both calibration stores plus the per-kind mismatch
/// tallies (so restoring republishes counter increments like the driver
/// does for checked/nan/oob).
struct AbftState final : SchemeState {
  BoundStore row_sums;
  BoundStore elem_bounds;
  std::array<std::size_t, kLayerKindCount> kind_mismatches{};
};

/// Shifts row-local range_restrict indices back into dispatched-span
/// coordinates so the driver's observer attributes clips to the right
/// sequence position.
class OffsetObserver final : public ClipObserver {
 public:
  OffsetObserver(ClipObserver* inner, std::size_t offset)
      : inner_(inner), offset_(offset) {}
  void on_oob(float original, std::size_t index) override {
    inner_->on_oob(original, offset_ + index);
  }

 private:
  ClipObserver* inner_;
  std::size_t offset_;
};

double row_sum(std::span<const float> row) {
  double sum = 0.0;
  for (float v : row) sum += static_cast<double>(v);
  return sum;
}

SchemeSpec abft_spec(const ModelConfig& config, const AbftLinearOptions& options) {
  SchemeSpec spec;
  spec.name = "abft-linear";
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const LayerKind kind = static_cast<LayerKind>(k);
    if (is_linear_layer(kind) && config.has_layer(kind)) {
      spec.covered.push_back(kind);
    }
  }
  spec.policy = ClipPolicy::kToBound;
  spec.correct_nan = true;
  spec.bound_scale = options.scale;
  spec.online = true;  // first-token calibration, like FT2
  return spec;
}

}  // namespace

AbftLinearScheme::AbftLinearScheme(const ModelConfig& config,
                                   AbftLinearOptions options)
    : DetectionScheme(abft_spec(config, options)),
      options_(options),
      row_sums_(config),
      elem_bounds_(config) {}

void AbftLinearScheme::bind_metrics(MetricsRegistry& metrics) {
  for (LayerKind k : spec().covered) {
    mismatch_counters_[static_cast<std::size_t>(k)] = metrics.counter(
        "protect.checksum_mismatch." + std::string(layer_kind_name(k)));
  }
}

void AbftLinearScheme::begin_generation() {
  row_sums_.reset();
  elem_bounds_.reset();
}

bool AbftLinearScheme::row_sum_ok(const Bounds& calibrated,
                                  double sum) const {
  if (!std::isfinite(sum)) return false;
  const double lo = calibrated.lo;
  const double hi = calibrated.hi;
  const double center = 0.5 * (lo + hi);
  const double half = 0.5 * (hi - lo);
  // Small relative slack keeps a degenerate (single-observation) interval
  // from flagging fault-free numerical noise.
  const double tolerance =
      static_cast<double>(options_.margin) *
      (half + 1e-3 * (std::abs(center) + 1.0));
  return std::abs(sum - center) <= tolerance;
}

void AbftLinearScheme::detect_and_correct(const HookContext& ctx,
                                          std::span<float> values,
                                          ProtectionStats& delta,
                                          ClipObserver* observer) {
  const std::size_t width = ctx.width(values.size());
  const std::size_t rows = width == 0 ? 0 : values.size() / width;

  if (ctx.first_token_phase) {
    // Calibration: NaN-only correction while recording the fault-free
    // row-sum range and the elementwise range.
    delta.values_checked = values.size();
    delta.nan_corrected = correct_nan_to_zero(values);
    Bounds& calibrated = row_sums_.at(ctx.site);
    for (std::size_t r = 0; r < rows; ++r) {
      calibrated.observe(static_cast<float>(row_sum(ctx.row(values, r))));
    }
    elem_bounds_.at(ctx.site).observe_span(values);
    return;
  }

  delta.values_checked = values.size();
  const Bounds& calibrated = row_sums_.at(ctx.site);
  const Bounds clamp = elem_bounds_.at(ctx.site).scaled(options_.scale);
  const std::size_t kind = static_cast<std::size_t>(ctx.site.kind);
  for (std::size_t r = 0; r < rows; ++r) {
    std::span<float> row = ctx.row(values, r);
    delta.nan_corrected += correct_nan_to_zero(row);
    if (!calibrated.valid()) continue;  // site never ran in the first token
    if (row_sum_ok(calibrated, row_sum(row))) continue;
    ++mismatches_;
    ++kind_mismatches_[kind];
    mismatch_counters_[kind].inc();
    // The checksum localizes the row, not the element: clamp the whole row
    // against the scaled elementwise bounds (NaNs are already zeroed).
    ProtectionStats sub;
    OffsetObserver offset(observer, r * width);
    range_restrict(row, clamp, ClipPolicy::kToBound, /*correct_nan=*/false,
                   &sub, /*detect_only=*/false,
                   observer != nullptr ? &offset : nullptr);
    delta.oob_corrected += sub.oob_corrected;
  }
}

std::shared_ptr<const SchemeState> AbftLinearScheme::capture_state() const {
  auto state = std::make_shared<AbftState>();
  state->row_sums = row_sums_;
  state->elem_bounds = elem_bounds_;
  state->kind_mismatches = kind_mismatches_;
  return state;
}

void AbftLinearScheme::restore_state(const SchemeState* state) {
  const auto* abft = dynamic_cast<const AbftState*>(state);
  if (abft == nullptr) return;
  row_sums_ = abft->row_sums;
  elem_bounds_ = abft->elem_bounds;
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const std::size_t n = abft->kind_mismatches[k];
    if (n == 0) continue;
    kind_mismatches_[k] += n;
    mismatches_ += n;
    mismatch_counters_[k].inc(n);
  }
}

}  // namespace ft2
