// PlanningModel implementation for the 16-core component-level chip.
//
// This is the paper's on-line estimator, assembled from:
//   Eq. (1)  steady state:  G(k) Ts(k) = P(k)   (SteadyStateSolver)
//   Eq. (5)  transient:     T(k) = (1-b) Ts + b T(k-1), b = exp(-dt/RC)
//   Eq. (6)  leakage:       linear in last-interval temperature
//   Eq. (7)  dynamic:       scaled from measured previous-interval power
//   Eq. (9)  TEC power:     r I^2 + alpha I (Th - Tc)
//   Eq. (11) performance:   IPS scaled from measured previous-interval IPS
//
// The model keeps its own full-network temperature estimate T^(k): die nodes
// are corrected with sensor readings every interval; TEC-face, spreader and
// sink nodes are unobservable and evolve by Eq. (5). The gap between this
// estimator and the implicit-Euler plant is what yields the paper's small
// runtime violations (Fig. 5(b)).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/planning.h"
#include "power/dvfs.h"
#include "power/fan.h"
#include "power/leakage.h"
#include "thermal/solvers.h"

namespace tecfan::core {

class ChipPlanningModel final : public PlanningModel {
 public:
  struct Config {
    power::LinearLeakageModel leakage;
    power::FanModel fan = power::FanModel::dynatron_r16();
    power::DvfsTable dvfs = power::DvfsTable::scc();
    double threshold_k = 363.15;
    double control_period_s = 2e-3;
  };

  /// What the controller can measure at the start of each interval.
  struct Observation {
    linalg::Vector comp_temps_k;      // sensed die temperatures
    linalg::Vector comp_dyn_power_w;  // previous-interval dynamic power [22]
    linalg::Vector core_ips;          // previous-interval per-core IPS
    KnobState applied;                // knobs in effect during that interval
  };

  /// Borrows `engine`'s steady factorization (a steady-only engine is
  /// enough); constructing a planner is therefore cheap, and any number of
  /// planners can share one engine across threads.
  ChipPlanningModel(std::shared_ptr<const thermal::ThermalEngine> engine,
                    Config config);

  /// Feed the interval's measurements; must be called before decide()/
  /// predict() each interval.
  void observe(const Observation& obs);

  void set_threshold_k(double t) { config_.threshold_k = t; }

  // PlanningModel interface.
  int core_count() const override;
  std::size_t tec_count() const override;
  int dvfs_level_count() const override {
    return config_.dvfs.level_count();
  }
  int fan_level_count() const override { return config_.fan.level_count(); }
  std::size_t spot_count() const override;
  int core_of_spot(std::size_t spot) const override;
  const std::vector<std::size_t>& tecs_over(std::size_t spot) const override;
  const linalg::Vector& sensed_temps() const override;
  double threshold_k() const override { return config_.threshold_k; }
  Prediction predict(const KnobState& knobs) override;
  Prediction predict_steady(const KnobState& knobs) override;

  /// Evaluate many candidate knob settings, fanning out over
  /// util/parallel.h workers. Each worker borrows its own solver workspace
  /// from the shared engine, so results are bit-exact with calling
  /// predict() serially on each candidate.
  std::vector<Prediction> predict_batch(std::span<const KnobState> knobs);

  /// Flat-ActionSet batch evaluation, parallelized the same way as
  /// predict_batch (one independent SteadyStateSolver workspace per
  /// candidate); bit-exact with the serial default.
  void evaluate_batch(const ActionSet::Slice& slice, const KnobState& base,
                      std::vector<Prediction>& out) override;

  /// predict() variant that also exposes the steady-state node vector
  /// (Eq. 1 solution) and the blended next-interval node vector (Eq. 5)
  /// behind the prediction — the anchors of the incremental per-core model.
  Prediction predict_detailed(const KnobState& knobs,
                              linalg::Vector* steady_nodes_out,
                              linalg::Vector* blended_nodes_out = nullptr);

  /// Internal full-state estimate T^(k) after the last observe().
  const linalg::Vector& state_estimate() const { return state_estimate_; }

  const Config& config() const { return config_; }
  const thermal::ChipThermalModel& thermal_model() const { return *model_; }

 private:
  struct CandidateEval {
    linalg::Vector comp_power;
    double dynamic_w = 0.0;
    double leakage_w = 0.0;
    thermal::CoolingState cooling;
  };

  CandidateEval evaluate_power(const KnobState& knobs) const;
  Prediction finish_prediction(const KnobState& knobs,
                               const CandidateEval& eval,
                               linalg::Vector node_temps) const;

  std::shared_ptr<const thermal::ThermalEngine> engine_;
  std::shared_ptr<const thermal::ChipThermalModel> model_;
  Config config_;
  thermal::SteadyStateSolver solver_;
  linalg::Vector state_estimate_;  // full node vector T^(k)
  Observation last_;
  bool has_observation_ = false;
};

}  // namespace tecfan::core
