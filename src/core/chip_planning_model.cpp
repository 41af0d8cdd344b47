#include "core/chip_planning_model.h"

#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace tecfan::core {
namespace {

std::shared_ptr<const thermal::ThermalEngine> require_engine(
    std::shared_ptr<const thermal::ThermalEngine> engine) {
  TECFAN_REQUIRE(engine != nullptr, "ChipPlanningModel requires an engine");
  return engine;
}

}  // namespace

ChipPlanningModel::ChipPlanningModel(
    std::shared_ptr<const thermal::ThermalEngine> engine, Config config)
    : engine_(require_engine(std::move(engine))),
      model_(engine_->model_ptr()),
      config_(std::move(config)),
      solver_(engine_) {}

int ChipPlanningModel::core_count() const {
  return model_->floorplan().core_count();
}

std::size_t ChipPlanningModel::tec_count() const {
  return model_->tec_count();
}

std::size_t ChipPlanningModel::spot_count() const {
  return model_->component_count();
}

int ChipPlanningModel::core_of_spot(std::size_t spot) const {
  return model_->floorplan().component(spot).core;
}

const std::vector<std::size_t>& ChipPlanningModel::tecs_over(
    std::size_t spot) const {
  return model_->tecs_over(spot);
}

const linalg::Vector& ChipPlanningModel::sensed_temps() const {
  TECFAN_REQUIRE(has_observation_, "sensed_temps before first observe()");
  return last_.comp_temps_k;
}

void ChipPlanningModel::observe(const Observation& obs) {
  TECFAN_REQUIRE(obs.comp_temps_k.size() == model_->component_count(),
                 "observation temps size mismatch");
  TECFAN_REQUIRE(obs.comp_dyn_power_w.size() == model_->component_count(),
                 "observation power size mismatch");
  TECFAN_REQUIRE(
      obs.core_ips.size() ==
          static_cast<std::size_t>(model_->floorplan().core_count()),
      "observation IPS size mismatch");
  TECFAN_REQUIRE(obs.applied.tec_on.size() == model_->tec_count(),
                 "observation knob size mismatch");
  last_ = obs;

  if (state_estimate_.empty()) {
    // Bootstrap the unobservable nodes from a steady solve at the observed
    // operating point (the paper similarly iterates HotSpot to a stable
    // initial temperature before starting).
    CandidateEval eval = evaluate_power(obs.applied);
    state_estimate_ = solver_.solve(eval.comp_power, eval.cooling);
  }
  // Sensor fusion: die nodes are measured directly.
  for (std::size_t c = 0; c < model_->component_count(); ++c)
    state_estimate_[model_->die_node(c)] = obs.comp_temps_k[c];
  has_observation_ = true;
}

ChipPlanningModel::CandidateEval ChipPlanningModel::evaluate_power(
    const KnobState& knobs) const {
  TECFAN_REQUIRE(knobs.dvfs.size() ==
                     static_cast<std::size_t>(core_count()),
                 "knob DVFS size mismatch");
  TECFAN_REQUIRE(knobs.tec_on.size() == model_->tec_count(),
                 "knob TEC size mismatch");
  CandidateEval eval;
  const std::size_t n_comp = model_->component_count();
  eval.comp_power.assign(n_comp, 0.0);
  const double chip_area = model_->floorplan().chip_area();

  const bool first = !has_observation_;
  for (std::size_t c = 0; c < n_comp; ++c) {
    const auto& comp = model_->floorplan().component(c);
    const auto core = static_cast<std::size_t>(comp.core);
    // Eq. (7): dynamic power scaled from the previous interval measurement.
    double dyn = 0.0;
    if (!first) {
      const int prev_lvl = last_.applied.dvfs[core];
      dyn = last_.comp_dyn_power_w[c] *
            config_.dvfs.dyn_scale(prev_lvl, knobs.dvfs[core]);
    }
    // Eq. (6): leakage, linear in the last sensed temperature.
    const double t_prev =
        first ? config_.threshold_k : last_.comp_temps_k[c];
    const double leak = config_.leakage.component_leakage_w(
        comp.rect.area() / chip_area, t_prev);
    eval.comp_power[c] = dyn + leak;
    eval.dynamic_w += dyn;
    eval.leakage_w += leak;
  }
  eval.cooling.tec_on = knobs.tec_on;
  eval.cooling.airflow_cfm = config_.fan.airflow_cfm(knobs.fan_level);
  return eval;
}

Prediction ChipPlanningModel::finish_prediction(
    const KnobState& knobs, const CandidateEval& eval,
    linalg::Vector node_temps) const {
  Prediction pred;
  pred.spot_temps_k.resize(model_->component_count());
  for (std::size_t c = 0; c < model_->component_count(); ++c)
    pred.spot_temps_k[c] = node_temps[model_->die_node(c)];
  pred.power.dynamic_w = eval.dynamic_w;
  pred.power.leakage_w = eval.leakage_w;
  pred.power.tec_w = model_->total_tec_power(node_temps, eval.cooling);
  pred.power.fan_w = config_.fan.power_w(knobs.fan_level);
  // Eq. (11)/(10): chip IPS from measured previous-interval per-core IPS.
  double ips = 0.0;
  if (has_observation_) {
    for (int n = 0; n < core_count(); ++n) {
      const auto ni = static_cast<std::size_t>(n);
      ips += last_.core_ips[ni] *
             config_.dvfs.freq_scale(last_.applied.dvfs[ni], knobs.dvfs[ni]);
    }
  }
  pred.ips = ips;
  pred.capacity_ips = ips;
  return pred;
}

Prediction ChipPlanningModel::predict(const KnobState& knobs) {
  return predict_detailed(knobs, nullptr, nullptr);
}

Prediction ChipPlanningModel::predict_detailed(
    const KnobState& knobs, linalg::Vector* steady_nodes_out,
    linalg::Vector* blended_nodes_out) {
  TECFAN_REQUIRE(has_observation_, "predict before first observe()");
  CandidateEval eval = evaluate_power(knobs);
  linalg::Vector steady = solver_.solve(eval.comp_power, eval.cooling);
  if (steady_nodes_out) *steady_nodes_out = steady;
  linalg::Vector next = thermal::exponential_step(
      *model_, steady, state_estimate_, config_.control_period_s);
  if (blended_nodes_out) *blended_nodes_out = next;
  return finish_prediction(knobs, eval, std::move(next));
}

std::vector<Prediction> ChipPlanningModel::predict_batch(
    std::span<const KnobState> knobs) {
  TECFAN_REQUIRE(has_observation_, "predict_batch before first observe()");
  std::vector<Prediction> out(knobs.size());
  parallel_for(knobs.size(), [&](std::size_t i) {
    // Each candidate gets its own workspace over the shared engine, so
    // evaluations are independent and match the serial predict() bit for
    // bit (same operator, same update arithmetic).
    thermal::SteadyStateSolver solver(engine_);
    CandidateEval eval = evaluate_power(knobs[i]);
    linalg::Vector steady = solver.solve(eval.comp_power, eval.cooling);
    linalg::Vector next = thermal::exponential_step(
        *model_, steady, state_estimate_, config_.control_period_s);
    out[i] = finish_prediction(knobs[i], eval, std::move(next));
  });
  return out;
}

void ChipPlanningModel::evaluate_batch(const ActionSet::Slice& slice,
                                       const KnobState& base,
                                       std::vector<Prediction>& out) {
  TECFAN_REQUIRE(has_observation_, "evaluate_batch before first observe()");
  out.resize(slice.size());
  parallel_for(slice.size(), [&](std::size_t i) {
    // Same per-candidate independence as predict_batch: a private solver
    // workspace over the shared engine keeps results bit-exact with the
    // serial predict() loop.
    thermal::SteadyStateSolver solver(engine_);
    KnobState knobs = base;
    slice.set->materialize(slice.begin + i, knobs);
    CandidateEval eval = evaluate_power(knobs);
    linalg::Vector steady = solver.solve(eval.comp_power, eval.cooling);
    linalg::Vector next = thermal::exponential_step(
        *model_, steady, state_estimate_, config_.control_period_s);
    out[i] = finish_prediction(knobs, eval, std::move(next));
  });
}

Prediction ChipPlanningModel::predict_steady(const KnobState& knobs) {
  TECFAN_REQUIRE(has_observation_, "predict_steady before first observe()");
  CandidateEval eval = evaluate_power(knobs);
  linalg::Vector steady = solver_.solve(eval.comp_power, eval.cooling);
  return finish_prediction(knobs, eval, std::move(steady));
}

}  // namespace tecfan::core
