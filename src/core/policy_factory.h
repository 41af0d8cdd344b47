// Canonical policy-name registry shared by the tecfand service, the CLI and
// the benches — one place mapping protocol policy names to constructed
// policies, so the layers cannot drift apart on spelling or defaults.
#pragma once

#include <string>

#include "core/control_engine.h"
#include "core/policy.h"

namespace tecfan::core {

/// Construct the policy registered under `name`, or nullptr when unknown.
/// Known names: fan-only, fan+tec, fan+dvfs, dvfs+tec, dynamic-fan,
/// tecfan, tecfan-chipwide. Policies that plan over the knob space share
/// `engine` (pass the scenario's ControlEngine to keep requests
/// allocation-light and its memoized action sets warm); nullptr falls back
/// to a lazily built dims-only engine.
PolicyPtr make_named_policy(const std::string& name,
                            ControlEnginePtr engine = nullptr);

}  // namespace tecfan::core
