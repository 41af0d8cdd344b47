// Timed calls into the thermal and linear-algebra entry points, over the
// cooling states a workload selected.
#pragma once

#include <vector>

#include "instruments.h"
#include "json_out.h"
#include "sim/chip_engine.h"
#include "thermal/network.h"

namespace perfbench {

struct ThermalProbe {
  Samples steady_off;  // SteadyStateSolver::solve, fresh workspace, TECs off
  Samples steady_on;   // same with at least one TEC on (Woodbury update set)
  Samples transient;   // TransientSolver::step with the state already applied
  Samples band;        // FactoredOperator::solve_base on the steady operator
};

/// One fresh-workspace steady solve and one warm transient step per state,
/// then `band_reps` base solves.
ThermalProbe probe_thermal(const tecfan::sim::ChipEngine& engine,
                           const std::vector<tecfan::thermal::CoolingState>&
                               states,
                           int band_reps);

/// Adds the thermal.* and linalg.* layer fields.
void add_thermal_fields(JsonObject& out, const ThermalProbe& probe);

/// Airflow per fan level, for turning knob states into cooling states.
std::vector<double> airflow_by_level(const tecfan::sim::ChipEngine& engine);

}  // namespace perfbench
