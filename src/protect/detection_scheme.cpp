#include "protect/detection_scheme.hpp"

#include <cstdlib>
#include <sstream>

#include "protect/abft_linear.hpp"
#include "protect/adaptive.hpp"
#include "tensor/dispatch.hpp"

namespace ft2 {

const BoundStore& DetectionScheme::empty_bounds() {
  static const BoundStore store;
  return store;
}

// ---------------------------------------------------------------------------
// RangeRestrictScheme

namespace {

/// RangeRestrictScheme's boundary snapshot: the online first-token bounds
/// (all there is — offline bounds are immutable for the generation).
struct RangeSchemeState final : SchemeState {
  BoundStore online_bounds;
};

}  // namespace

RangeRestrictScheme::RangeRestrictScheme(const ModelConfig& config,
                                         SchemeSpec spec,
                                         BoundStore offline_bounds)
    : DetectionScheme(std::move(spec)),
      offline_bounds_(std::move(offline_bounds)),
      online_bounds_(config) {
  FT2_CHECK_MSG(!spec_.needs_offline_bounds || !offline_bounds_.empty(),
                "scheme " << spec_.name << " requires offline bounds");
  if (offline_bounds_.empty()) {
    // Invalid (never-observed) bounds: range_restrict degrades to NaN-only
    // correction, which is what bound-less protection can still do.
    offline_bounds_ = BoundStore(config);
  }
}

void RangeRestrictScheme::begin_generation() {
  if (spec_.online) online_bounds_.reset();
}

void RangeRestrictScheme::detect_and_correct(const HookContext& ctx,
                                             std::span<float> values,
                                             ProtectionStats& delta,
                                             ClipObserver* observer) {
  // `values` may span several positions (blocked prefill). Every operation
  // below is elementwise or an order-insensitive min/max, and bounds are
  // per-site (not per-position), so the flat span needs no row iteration
  // and the results match per-position dispatch exactly.
  if (spec_.online && ctx.first_token_phase) {
    // First-token phase: no bounds yet. Correct NaN (always detectable)
    // and record the observed range for the remaining tokens.
    delta.values_checked = values.size();
    delta.nan_corrected = correct_nan_to_zero(values);
    online_bounds_.at(ctx.site).observe_span(values);
  } else {
    const Bounds& raw = spec_.online ? online_bounds_.at(ctx.site)
                                     : offline_bounds_.at(ctx.site);
    range_restrict(values, raw.scaled(spec_.bound_scale), spec_.policy,
                   spec_.correct_nan, &delta, spec_.detect_only, observer);
  }
}

bool RangeRestrictScheme::plan_epilogue(const HookContext& ctx,
                                        KernelEpilogue& epi) const {
  // Mirror detect_and_correct branch for branch: every mode below is
  // elementwise with constant per-site bounds, so it can run inside the
  // kernel's store epilogue. absorb_epilogue handles the one non-elementwise
  // piece (first-token observe_span) over the finished span.
  if (spec_.online && ctx.first_token_phase) {
    epi.protect = KernelEpilogue::Protect::kFirstToken;
    return true;
  }
  const Bounds& raw = spec_.online ? online_bounds_.at(ctx.site)
                                   : offline_bounds_.at(ctx.site);
  const Bounds scaled = raw.scaled(spec_.bound_scale);
  epi.detect_only = spec_.detect_only;
  if (!scaled.valid()) {
    // range_restrict with invalid bounds: NaN-only correction, or nothing
    // at all (not even values_checked) without correct_nan.
    epi.protect = spec_.correct_nan ? KernelEpilogue::Protect::kNanOnly
                                    : KernelEpilogue::Protect::kNone;
    return true;
  }
  epi.protect = KernelEpilogue::Protect::kBounds;
  epi.correct_nan = spec_.correct_nan;
  epi.lo = scaled.lo;
  epi.hi = scaled.hi;
  switch (spec_.policy) {
    case ClipPolicy::kToBound:
      epi.lo_sub = scaled.lo;
      epi.hi_sub = scaled.hi;
      break;
    case ClipPolicy::kToZero:
      epi.lo_sub = 0.0f;
      epi.hi_sub = 0.0f;
      break;
    case ClipPolicy::kToTypical:
      epi.lo_sub = scaled.typical;
      epi.hi_sub = scaled.typical;
      break;
  }
  return true;
}

void RangeRestrictScheme::absorb_epilogue(const HookContext& ctx,
                                          std::span<const float> values,
                                          const KernelEpilogue& epi,
                                          const EpilogueTally& tally) {
  (void)tally;
  if (epi.protect == KernelEpilogue::Protect::kFirstToken) {
    // The kernel already zeroed NaNs; fold the finished span into the
    // online bounds in flat order — the exact observe_span call (on
    // identical data) the hook path makes. Doing this here rather than in
    // the kernel keeps ±0 min/max ordering out of the parallel tiles.
    online_bounds_.at(ctx.site).observe_span(values);
  }
}

std::shared_ptr<const SchemeState> RangeRestrictScheme::capture_state() const {
  auto state = std::make_shared<RangeSchemeState>();
  state->online_bounds = online_bounds_;
  return state;
}

void RangeRestrictScheme::restore_state(const SchemeState* state) {
  const auto* range = dynamic_cast<const RangeSchemeState*>(state);
  if (range == nullptr) return;
  online_bounds_ = range->online_bounds;
}

bool RangeRestrictScheme::state_matches(const SchemeState* recorded) const {
  const auto* range = dynamic_cast<const RangeSchemeState*>(recorded);
  return range != nullptr && online_bounds_.identical(range->online_bounds);
}

// ---------------------------------------------------------------------------
// Parameters

namespace {

const std::string* find_param(const SchemeParams& params,
                              const std::string& key) {
  const auto it = params.find(key);
  return it == params.end() ? nullptr : &it->second;
}

}  // namespace

float scheme_param_float(const SchemeParams& params, const std::string& key,
                         float fallback, std::string_view scheme) {
  const std::string* raw = find_param(params, key);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const float value = std::strtof(raw->c_str(), &end);
  FT2_CHECK_MSG(end != raw->c_str() && *end == '\0',
                "scheme " << scheme << ": parameter " << key << "='" << *raw
                          << "' is not a number");
  return value;
}

bool scheme_param_bool(const SchemeParams& params, const std::string& key,
                       bool fallback, std::string_view scheme) {
  const std::string* raw = find_param(params, key);
  if (raw == nullptr) return fallback;
  if (*raw == "1" || *raw == "true") return true;
  if (*raw == "0" || *raw == "false") return false;
  FT2_CHECK_MSG(false, "scheme " << scheme << ": parameter " << key << "='"
                                 << *raw << "' is not a bool (0/1/true/false)");
  return fallback;
}

void require_known_params(const SchemeParams& params,
                          std::initializer_list<std::string_view> known,
                          std::string_view scheme) {
  for (const auto& [key, value] : params) {
    bool ok = false;
    for (std::string_view k : known) ok = ok || key == k;
    if (ok) continue;
    std::ostringstream names;
    const char* sep = "";
    for (std::string_view k : known) {
      names << sep << k;
      sep = ", ";
    }
    FT2_CHECK_MSG(false, "scheme " << scheme << ": unknown parameter '" << key
                                   << "' (known: "
                                   << (known.size() == 0 ? "none" : names.str())
                                   << ")");
  }
}

// ---------------------------------------------------------------------------
// Registry

namespace {

/// Registry entry for one Table-1 scheme. Its name and bound source come
/// from scheme_spec; neither depends on the architecture.
SchemeInfo range_scheme_info(SchemeKind kind, std::string summary) {
  const SchemeSpec base = scheme_spec(kind, ModelConfig{});
  SchemeInfo info;
  info.name = base.name;
  info.summary = std::move(summary);
  info.needs_offline_bounds = base.needs_offline_bounds;
  info.make = [kind](const ModelConfig& config, const SchemeParams& params,
                     BoundStore offline) -> std::unique_ptr<DetectionScheme> {
    SchemeSpec spec = scheme_spec(kind, config);
    require_known_params(params, {"scale", "detect_only"}, spec.name);
    spec.bound_scale =
        scheme_param_float(params, "scale", spec.bound_scale, spec.name);
    spec.detect_only =
        scheme_param_bool(params, "detect_only", spec.detect_only, spec.name);
    return std::make_unique<RangeRestrictScheme>(config, std::move(spec),
                                                 std::move(offline));
  };
  return info;
}

}  // namespace

SchemeRegistry::SchemeRegistry() {
  add(range_scheme_info(SchemeKind::kNone,
                        "no protection (fault-impact baseline)"));
  add(range_scheme_info(
      SchemeKind::kRanger,
      "offline bounds on activation outputs, clip-to-zero, no NaN fix"));
  add(range_scheme_info(
      SchemeKind::kMaxiMals,
      "offline bounds on attention/MLP outputs, clip-to-zero x1.25"));
  add(range_scheme_info(SchemeKind::kGlobalClipper,
                        "offline bounds on V_PROJ/OUT_PROJ, clip-to-zero"));
  add(range_scheme_info(
      SchemeKind::kFt2,
      "online first-token bounds on critical layers, clip-to-bound x2"));
  add(range_scheme_info(SchemeKind::kFt2Offline,
                        "FT2 coverage/policy with offline-profiled bounds"));
  {
    SchemeInfo info;
    info.name = "abft-linear";
    info.summary =
        "per-row column-sum checksums on linear outputs, first-token "
        "calibrated (params: margin, scale)";
    info.make = [](const ModelConfig& config, const SchemeParams& params,
                   BoundStore) -> std::unique_ptr<DetectionScheme> {
      require_known_params(params, {"margin", "scale"}, "abft-linear");
      AbftLinearOptions options;
      options.margin =
          scheme_param_float(params, "margin", options.margin, "abft-linear");
      options.scale =
          scheme_param_float(params, "scale", options.scale, "abft-linear");
      return std::make_unique<AbftLinearScheme>(config, options);
    };
    add(std::move(info));
  }
  {
    SchemeInfo info;
    info.name = "ft2-adaptive";
    info.summary =
        "FT2 bounds that re-profile online when in-bounds headroom drops "
        "below the near-clip threshold (params: threshold, scale)";
    info.make = [](const ModelConfig& config, const SchemeParams& params,
                   BoundStore) -> std::unique_ptr<DetectionScheme> {
      require_known_params(params, {"threshold", "scale"}, "ft2-adaptive");
      AdaptiveFt2Options options;
      options.threshold = scheme_param_float(params, "threshold",
                                             options.threshold, "ft2-adaptive");
      options.scale =
          scheme_param_float(params, "scale", options.scale, "ft2-adaptive");
      return std::make_unique<AdaptiveFt2Scheme>(config, options);
    };
    add(std::move(info));
  }
}

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry registry;
  return registry;
}

void SchemeRegistry::add(SchemeInfo info) {
  FT2_CHECK_MSG(!info.name.empty(), "scheme registration requires a name");
  FT2_CHECK_MSG(find(info.name) == nullptr,
                "scheme '" << info.name << "' is already registered");
  FT2_CHECK_MSG(info.make != nullptr,
                "scheme '" << info.name << "' registered without a factory");
  entries_.push_back(std::move(info));
}

const SchemeInfo* SchemeRegistry::find(std::string_view name) const {
  for (const SchemeInfo& info : entries_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::vector<std::string> all_scheme_names() {
  std::vector<std::string> names;
  for (const SchemeInfo& info : SchemeRegistry::instance().entries()) {
    names.push_back(info.name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// SchemeRef

SchemeRef SchemeRef::parse(std::string_view text) {
  SchemeRef ref;
  const std::size_t colon = text.find(':');
  ref.name = std::string(text.substr(0, colon));
  if (SchemeRegistry::instance().find(ref.name) == nullptr) {
    std::ostringstream known;
    const char* sep = "";
    for (const std::string& name : all_scheme_names()) {
      known << sep << name;
      sep = ", ";
    }
    FT2_CHECK_MSG(false, "unknown scheme '" << ref.name
                                            << "' (known: " << known.str()
                                            << ")");
  }
  if (colon == std::string_view::npos) return ref;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    FT2_CHECK_MSG(eq != std::string_view::npos && eq > 0,
                  "scheme '" << ref.name << "': malformed parameter '" << pair
                             << "' (expected key=value)");
    ref.params[std::string(pair.substr(0, eq))] =
        std::string(pair.substr(eq + 1));
  }
  return ref;
}

std::string SchemeRef::display() const {
  if (params.empty()) return name;
  std::ostringstream os;
  os << name;
  char sep = ':';
  for (const auto& [key, value] : params) {
    os << sep << key << '=' << value;
    sep = ',';
  }
  return os.str();
}

bool SchemeRef::needs_offline_bounds() const {
  const SchemeInfo* info = SchemeRegistry::instance().find(name);
  FT2_CHECK_MSG(info != nullptr, "unknown scheme '" << name << "'");
  return info->needs_offline_bounds;
}

std::unique_ptr<DetectionScheme> SchemeRef::instantiate(
    const ModelConfig& config, BoundStore offline_bounds) const {
  const SchemeInfo* info = SchemeRegistry::instance().find(name);
  FT2_CHECK_MSG(info != nullptr, "unknown scheme '" << name << "'");
  std::unique_ptr<DetectionScheme> scheme =
      info->make(config, params, std::move(offline_bounds));
  FT2_CHECK_MSG(scheme != nullptr,
                "scheme '" << name << "' factory returned null");
  return scheme;
}

}  // namespace ft2
