#include "core/policy_factory.h"

#include <memory>
#include <utility>

#include "core/dynamic_fan_policy.h"
#include "core/reactive_policies.h"
#include "core/tecfan_policy.h"

namespace tecfan::core {

PolicyPtr make_named_policy(const std::string& name, ControlEnginePtr engine) {
  if (name == "fan-only") return std::make_unique<FanOnlyPolicy>();
  if (name == "fan+tec") return std::make_unique<FanTecPolicy>();
  if (name == "fan+dvfs") return std::make_unique<FanDvfsPolicy>();
  if (name == "dvfs+tec") return std::make_unique<DvfsTecPolicy>();
  if (name == "dynamic-fan") return std::make_unique<DynamicFanPolicy>();
  if (name == "tecfan")
    return std::make_unique<TecFanPolicy>(std::move(engine));
  if (name == "tecfan-chipwide") {
    PolicyOptions opt;
    opt.chip_wide_dvfs = true;
    return std::make_unique<TecFanPolicy>(std::move(engine), opt);
  }
  return nullptr;
}

}  // namespace tecfan::core
