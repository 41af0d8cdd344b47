#include "probes.h"

#include <algorithm>

#include "thermal/solvers.h"

namespace perfbench {

ThermalProbe probe_thermal(
    const tecfan::sim::ChipEngine& engine,
    const std::vector<tecfan::thermal::CoolingState>& states, int band_reps) {
  ThermalProbe probe;
  const auto& thermal = engine.thermal();
  const auto& model = thermal->model();
  // Solve cost does not depend on the values; a uniform 100 W die keeps
  // the temperatures physical.
  const std::vector<double> power(
      model.component_count(),
      100.0 / static_cast<double>(model.component_count()));
  const std::vector<double> temps(model.node_count(), model.ambient_k());

  for (const auto& state : states) {
    tecfan::thermal::SteadyStateSolver steady(thermal);
    const auto t0 = Clock::now();
    steady.solve(power, state);
    const double us = us_between(t0, Clock::now());
    const bool any_on = std::any_of(state.tec_on.begin(), state.tec_on.end(),
                                    [](std::uint8_t on) { return on != 0; });
    (any_on ? probe.steady_on : probe.steady_off).add(us);

    tecfan::thermal::TransientSolver plant(thermal);
    tecfan::linalg::Vector next = plant.step(temps, power, state);
    const auto t1 = Clock::now();
    next = plant.step(next, power, state);
    probe.transient.add(us_between(t1, Clock::now()));
  }

  const auto& op = *thermal->steady_operator();
  std::vector<double> rhs(op.size());
  for (std::size_t i = 0; i < rhs.size(); ++i)
    rhs[i] = 1.0 + static_cast<double>(i % 7);
  for (int r = 0; r < band_reps; ++r) {
    const auto t0 = Clock::now();
    op.solve_base(rhs);
    probe.band.add(us_between(t0, Clock::now()));
  }
  return probe;
}

void add_thermal_fields(JsonObject& out, const ThermalProbe& probe) {
  out.num("thermal.steady_solve_tec_off_us", probe.steady_off.median())
      .num("thermal.steady_solve_tec_on_us", probe.steady_on.median())
      .num("thermal.transient_step_us", probe.transient.median())
      .num("linalg.band_solve_us", probe.band.median());
}

std::vector<double> airflow_by_level(const tecfan::sim::ChipEngine& engine) {
  const auto& fan = engine.models().fan;
  std::vector<double> out;
  for (int l = 0; l < fan.level_count(); ++l) out.push_back(fan.airflow_cfm(l));
  return out;
}

}  // namespace perfbench
