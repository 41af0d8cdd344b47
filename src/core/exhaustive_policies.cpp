#include "core/exhaustive_policies.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.h"

namespace tecfan::core {
namespace strategies {
namespace {

/// Candidates per evaluate_batch call: bounds the Prediction scratch (a few
/// MB at the server model's spot counts) without giving up batch locality.
constexpr std::size_t kBatchChunk = 8192;

/// Walk the whole enumeration for `spec` through chunked batch evaluation,
/// invoking scan(knobs, prediction) for every candidate in enumeration
/// order. `tmpl` supplies the dimensions `spec` does not cover.
template <typename Scan>
void scan_actions(const ControlEngine& engine, const ActionSpec& spec,
                  PolicyWorkspace& ws, PlanningModel& model,
                  const KnobState& tmpl, Scan&& scan) {
  const std::shared_ptr<const ActionSet> set = engine.actions(spec);
  KnobState knobs = tmpl;
  for (std::size_t b = 0; b < set->size(); b += kBatchChunk) {
    const std::size_t e = std::min(set->size(), b + kBatchChunk);
    model.evaluate_batch(set->slice(b, e), tmpl, ws.batch);
    for (std::size_t i = 0; i < e - b; ++i) {
      set->materialize(b + i, knobs);
      scan(knobs, ws.batch[i]);
    }
  }
}

}  // namespace

KnobState oracle_decide(const ControlEngine& engine,
                        const ExhaustiveOptions& options, double ips_floor,
                        PolicyWorkspace& ws, PlanningModel& model,
                        const KnobState& current) {
  const bool fan_turn =
      options.base.manage_fan &&
      ws.interval % options.base.fan_period_intervals == 0;
  const ActionSpec spec{/*include_dvfs=*/true, /*include_fan=*/fan_turn};
  TECFAN_REQUIRE(engine.action_count(spec) <= options.max_candidates,
                 "Oracle search space exceeds the configured bound");

  const double tth = model.threshold_k() - options.base.constraint_margin_k;
  ++ws.interval;
  ws.candidates = 0;

  KnobState best = current;
  double best_epi = std::numeric_limits<double>::infinity();
  bool best_valid = false;
  KnobState coolest = current;
  double coolest_t = std::numeric_limits<double>::infinity();

  scan_actions(engine, spec, ws, model, current,
               [&](const KnobState& k, const Prediction& p) {
                 ++ws.candidates;
                 const double t = p.max_temp_k();
                 if (t < coolest_t) {
                   coolest_t = t;
                   coolest = k;
                 }
                 if (t > tth) return;
                 if (p.capacity_ips + 1e-9 < ips_floor) return;
                 if (!best_valid || p.epi() < best_epi) {
                   best_epi = p.epi();
                   best = k;
                   best_valid = true;
                 }
               });
  return best_valid ? best : coolest;
}

KnobState oftec_decide(const ControlEngine& engine,
                       const ExhaustiveOptions& options, PolicyWorkspace& ws,
                       PlanningModel& model, const KnobState& current) {
  const bool fan_turn =
      options.base.manage_fan &&
      ws.interval % options.base.fan_period_intervals == 0;
  ++ws.interval;
  const ActionSpec spec{/*include_dvfs=*/false, /*include_fan=*/fan_turn};
  TECFAN_REQUIRE(engine.action_count(spec) <= options.max_candidates,
                 "OFTEC search space exceeds the configured bound");

  const double tth = model.threshold_k() - options.base.constraint_margin_k;
  KnobState best = current;
  // OFTEC never adapts DVFS: cores stay at the top level.
  for (auto& d : best.dvfs) d = 0;
  double best_cooling = std::numeric_limits<double>::infinity();
  bool best_valid = false;
  KnobState coolest = best;
  double coolest_t = std::numeric_limits<double>::infinity();
  ws.candidates = 0;

  scan_actions(engine, spec, ws, model, best,
               [&](const KnobState& k, const Prediction& p) {
                 ++ws.candidates;
                 const double t = p.max_temp_k();
                 if (t < coolest_t) {
                   coolest_t = t;
                   coolest = k;
                 }
                 if (t > tth) return;
                 // OFTEC's objective: cooling power plus the leakage it
                 // influences through temperature ([8] is leakage-aware).
                 const double cooling = p.power.cooling_w() + p.power.leakage_w;
                 if (!best_valid || cooling < best_cooling) {
                   best_cooling = cooling;
                   best = k;
                   best_valid = true;
                 }
               });
  return best_valid ? best : coolest;
}

}  // namespace strategies

OraclePolicy::OraclePolicy(ExhaustiveOptions options) : options_(options) {}

OraclePolicy::OraclePolicy(ControlEnginePtr engine, ExhaustiveOptions options)
    : options_(options), engine_(std::move(engine)) {}

void OraclePolicy::reset() { ws_.reset(); }

double OraclePolicy::ips_floor(int) const { return 0.0; }

KnobState OraclePolicy::decide(PlanningModel& model,
                               const KnobState& current) {
  engine_ = ensure_control_engine(std::move(engine_), model);
  const double floor = ips_floor(ws_.interval);
  return strategies::oracle_decide(*engine_, options_, floor, ws_, model,
                                   current);
}

OraclePPolicy::OraclePPolicy(
    ExhaustiveOptions options,
    std::shared_ptr<const std::vector<double>> reference_ips)
    : OraclePolicy(options), reference_ips_(std::move(reference_ips)) {
  TECFAN_REQUIRE(reference_ips_ != nullptr,
                 "Oracle-P requires a reference IPS trajectory");
}

double OraclePPolicy::ips_floor(int interval) const {
  if (reference_ips_->empty()) return 0.0;
  const auto i = std::min(static_cast<std::size_t>(interval),
                          reference_ips_->size() - 1);
  return (*reference_ips_)[i];
}

OftecPolicy::OftecPolicy(ExhaustiveOptions options) : options_(options) {}

OftecPolicy::OftecPolicy(ControlEnginePtr engine, ExhaustiveOptions options)
    : options_(options), engine_(std::move(engine)) {}

void OftecPolicy::reset() { ws_.reset(); }

KnobState OftecPolicy::decide(PlanningModel& model,
                              const KnobState& current) {
  engine_ = ensure_control_engine(std::move(engine_), model);
  return strategies::oftec_decide(*engine_, options_, ws_, model, current);
}

}  // namespace tecfan::core
