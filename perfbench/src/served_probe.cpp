// In-process layer probes for the served workloads' traced runs.
//
// With --hot: Server::handle_line over the hot set, no sockets — the
// service front end's cost per cached hit. Otherwise: the given miss
// corpus lines replayed through the same public calls tecfand makes
// (ChipSimulator::equilibrium and ::run), with the policy decorators on,
// followed by the thermal probes over the equilibrium keys' cooling states.
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "harness.h"
#include "instruments.h"
#include "json_out.h"
#include "probes.h"
#include "service/request.h"
#include "service/server.h"
#include "sim/chip_simulator.h"
#include "sim/experiment.h"

namespace perfbench {
namespace {

std::vector<tecfan::service::Request> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<tecfan::service::Request> out;
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = tecfan::service::parse_request(line);
    if (!parsed.ok) throw std::runtime_error(parsed.error + ": " + line);
    out.push_back(std::move(parsed.request));
  }
  return out;
}

int probe_hot(const Args& args) {
  std::ifstream in(args.str("lines"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.empty()) throw std::runtime_error("no hot lines");
  const int reps = 20;

  tecfan::service::ServerOptions options;
  options.workers = 1;
  const auto t0 = Clock::now();
  tecfan::service::Server server(options);
  const double build_s = us_between(t0, Clock::now()) * 1e-6;
  for (const auto& line : lines) server.handle_line(line);  // fill the cache
  Samples hit;
  for (int r = 0; r < reps; ++r)
    for (const auto& line : lines) {
      const auto t = Clock::now();
      const std::string reply = server.handle_line(line);
      hit.add(us_between(t, Clock::now()));
      if (reply.rfind("ok cached=1", 0) != 0)
        throw std::runtime_error("hot line missed the cache: " + line);
    }
  JsonObject out;
  out.num("sim.engine_build_s", build_s)
      .num("service.handle_line_hit_us", hit.median());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int run_served_probe(const Args& args) {
  if (args.flag("hot")) return probe_hot(args);
  const std::vector<tecfan::service::Request> requests =
      read_requests(args.str("lines"));
  // tecfand's default simulated-time cap for runs (ServerOptions).
  const double max_sim_time_s = tecfan::service::ServerOptions{}.max_sim_time_s;

  const auto t0 = Clock::now();
  const tecfan::sim::ChipEnginePtr engine =
      tecfan::sim::make_default_chip_engine();
  const double build_s = us_between(t0, Clock::now()) * 1e-6;
  const std::vector<double> airflow = airflow_by_level(*engine);
  const auto& models = engine->models();
  tecfan::sim::ChipSimulator simulator(engine);

  Samples eq_off, eq_on, run_us;
  StatsSink tecfan_sink, reactive_sink;
  std::map<std::string, double> thresholds;  // base scenario per workload
  std::vector<tecfan::thermal::CoolingState> states;
  for (const auto& req : requests) {
    const auto wl = engine->workload(req.workload, req.threads);
    if (req.kind == tecfan::service::RequestKind::kEquilibrium) {
      auto knobs = tecfan::core::KnobState::initial(
          models.thermal->floorplan().core_count(),
          models.thermal->tec_count(), req.fan);
      for (int& d : knobs.dvfs) d = req.dvfs;
      for (auto& on : knobs.tec_on) on = req.tec_on ? 1 : 0;
      const auto t = Clock::now();
      simulator.equilibrium(*wl, knobs);
      (req.tec_on ? eq_on : eq_off).add(us_between(t, Clock::now()));
      tecfan::thermal::CoolingState state;
      state.tec_on = knobs.tec_on;
      state.airflow_cfm = airflow[static_cast<std::size_t>(req.fan)];
      states.push_back(std::move(state));
    } else if (req.kind == tecfan::service::RequestKind::kRun) {
      const std::string key = req.workload + "/" + std::to_string(req.threads);
      if (!thresholds.count(key))
        thresholds[key] = tecfan::sim::measure_base_scenario(
                              simulator, *wl, max_sim_time_s)
                              .peak_temp_k;
      tecfan::sim::RunConfig cfg;
      cfg.threshold_k = thresholds[key];
      cfg.fan_level = req.fan;
      cfg.max_sim_time_s = max_sim_time_s;
      cfg.record_trace = false;
      StatsSink& sink = req.policy == "tecfan" ? tecfan_sink : reactive_sink;
      TimedPolicy policy(
          tecfan::core::make_named_policy(req.policy, engine->control()), sink,
          true);
      const auto t = Clock::now();
      simulator.run(policy, *wl, cfg);
      run_us.add(us_between(t, Clock::now()));
    } else {
      throw std::runtime_error("probe replays equilibrium and run lines only");
    }
  }
  DecideStats tecfan = tecfan_sink.take();
  DecideStats all = reactive_sink.take();
  const double reactive_decide_mean =
      all.decide_us.count() ? all.decide_us.sum() /
                                  static_cast<double>(all.decide_us.count())
                            : 0.0;
  all.merge(tecfan);
  const ThermalProbe thermal = probe_thermal(*engine, states, 400);

  const auto mean = [](const Samples& s) {
    return s.count() ? s.sum() / static_cast<double>(s.count()) : 0.0;
  };
  JsonObject out;
  out.num("sim.engine_build_s", build_s)
      .num("sim.equilibrium_tec_off_us", eq_off.median())
      .num("sim.equilibrium_tec_on_us", eq_on.median())
      .num("sim.run_us", run_us.median())
      .num("sim.plant_us_per_interval",
           all.decisions ? (all.interval_us.sum() - all.decide_us.sum()) /
                               static_cast<double>(all.decisions)
                         : 0.0)
      .integer("sim.intervals", all.decisions)
      .num("core.decide_tecfan_us", mean(tecfan.decide_us))
      .num("core.decide_reactive_us", reactive_decide_mean)
      .integer("core.decisions", all.decisions)
      .num("core.predict_us", mean(all.predict_us))
      .num("core.predicts_per_decision",
           all.decisions ? static_cast<double>(all.predict_us.count()) /
                               static_cast<double>(all.decisions)
                         : 0.0);
  add_thermal_fields(out, thermal);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
