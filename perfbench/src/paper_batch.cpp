// paper_batch: the paper's own evaluation, in this process, no daemons.
//
// Sec. IV-C: for each of the five chip policies and each Fig. 5/6
// benchmark, the base scenario sets T_th and run_with_fan_sweep picks the
// slowest fan level the policy holds. Fig. 7: OFTEC, TECfan, Oracle and
// Oracle-P on the 4-core server model over the Wikipedia trace.
//
// An operation is one simulated control interval. Untraced, the only
// instrument is TimedPolicy's clock read per decide(); traced, decide(),
// predict() and evaluate_batch() are timed and the thermal probes run on
// cooling states the chip policies applied.
#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/exhaustive_policies.h"
#include "core/policy_factory.h"
#include "core/tecfan_policy.h"
#include "harness.h"
#include "instruments.h"
#include "json_out.h"
#include "perf/wikipedia_trace.h"
#include "probes.h"
#include "sim/chip_simulator.h"
#include "sim/experiment.h"
#include "sim/server_system.h"
#include "util/units.h"

namespace perfbench {
namespace {

using tecfan::sim::RunResult;

struct ChipPolicy {
  const char* name;  // make_named_policy name
  double max_mean_dvfs;
};

// The five chip policies of Sec. V-A with their sweep bounds, as in
// bench/common.h: TECfan's sweep emulates its higher-level fan loop.
const ChipPolicy kChipPolicies[] = {{"fan-only", 1e9},
                                    {"fan+tec", 1e9},
                                    {"fan+dvfs", 1e9},
                                    {"dvfs+tec", 1e9},
                                    {"tecfan", 0.5}};
const char* const kBenchmarks[] = {"cholesky", "fmm", "volrend", "lu"};

struct Fixture {
  tecfan::sim::ChipEnginePtr engine;
  std::unique_ptr<tecfan::perf::WikipediaTrace> trace;
  std::unique_ptr<tecfan::sim::ServerSimulator> server;
};

Fixture build_fixture() {
  Fixture f;
  f.engine = tecfan::sim::make_default_chip_engine();
  for (const char* b : kBenchmarks) f.engine->workload(b, 16);
  f.trace = std::make_unique<tecfan::perf::WikipediaTrace>();
  f.server = std::make_unique<tecfan::sim::ServerSimulator>();
  return f;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string result_json(const std::string& id, const RunResult& r,
                        std::size_t levels_tried, std::uint64_t decisions) {
  JsonObject o;
  o.str("id", id)
      .str("policy", r.policy)
      .integer("fan_level", static_cast<std::uint64_t>(r.fan_level))
      .integer("levels_tried", levels_tried)
      .integer("decisions", decisions)
      .integer("completed", r.completed ? 1 : 0)
      .num("time_ms", r.exec_time_s * 1e3)
      .num("energy_j", r.energy_j)
      .num("peak_t_c", tecfan::kelvin_to_celsius(r.peak_temp_k))
      .num("violations_pct", 100.0 * r.violation_frac)
      .num("avg_dvfs", r.avg_dvfs);
  return o.dump();
}

// Per policy family, for the layer breakdown.
struct Family {
  DecideStats stats;
  std::size_t calls = 0;
};

}  // namespace

int run_paper_batch(const Args& args) {
  const bool layers = args.flag("layers");
  const int setups = args.integer("setups", 3);

  // Set-up: engine construction plus every memo the protocol reads.
  Samples setup_s;
  Fixture fx;
  for (int i = 0; i < setups; ++i) {
    fx = Fixture{};  // release the previous copy before timing a new one
    const auto t0 = Clock::now();
    fx = build_fixture();
    setup_s.add(us_between(t0, Clock::now()) * 1e-6);
  }
  const std::vector<double> airflow = airflow_by_level(*fx.engine);

  std::vector<std::string> results;
  Family chip_tecfan, chip_reactive, srv_tecfan, srv_oracle, srv_oftec;
  Samples interval_us;
  std::uint64_t base_intervals = 0;
  double base_wall_s = 0.0, sweep_wall_s = 0.0, server_wall_s = 0.0;
  double decide_path_us = 0.0, model_path_us = 0.0;
  std::vector<tecfan::thermal::CoolingState> states;

  // Blocking-path share of a call whose levels may run in parallel: its
  // wall time split by the decide()/model share of the intervals it ran.
  const auto apportion = [&](const DecideStats& s, double wall_s) {
    const double interval = s.interval_us.sum();
    if (!layers || interval <= 0.0) return;
    decide_path_us += wall_s * 1e6 * s.decide_us.sum() / interval;
    model_path_us += wall_s * 1e6 *
                     (s.predict_us.sum() + s.batch_us.sum()) / interval;
  };

  const double cpu0 = cpu_seconds();
  const auto t_start = Clock::now();

  tecfan::sim::ChipSimulator simulator(fx.engine);
  for (const ChipPolicy& p : kChipPolicies) {
    Family& family =
        std::string(p.name) == "tecfan" ? chip_tecfan : chip_reactive;
    for (const char* bench : kBenchmarks) {
      const auto wl = fx.engine->workload(bench, 16);
      const auto tb = Clock::now();
      const RunResult base =
          tecfan::sim::measure_base_scenario(simulator, *wl);
      const auto ts = Clock::now();
      base_wall_s += us_between(tb, ts) * 1e-6;
      base_intervals += base.trace.size();

      tecfan::sim::SweepOptions opts;
      opts.threshold_k = base.peak_temp_k;
      opts.max_mean_dvfs = p.max_mean_dvfs;
      StatsSink sink;
      const auto control = fx.engine->control();
      const std::string name = p.name;
      const tecfan::sim::SweepResult sweep = tecfan::sim::run_with_fan_sweep(
          fx.engine,
          [&] {
            return std::make_unique<TimedPolicy>(
                tecfan::core::make_named_policy(name, control), sink, layers,
                &airflow, 256);
          },
          *wl, opts);
      const double wall = us_between(ts, Clock::now()) * 1e-6;
      sweep_wall_s += wall;
      DecideStats s = sink.take();
      apportion(s, wall);
      results.push_back(result_json("sweep/" + name + "/" + bench,
                                    sweep.chosen, sweep.per_level.size(),
                                    s.decisions));
      interval_us.merge(s.interval_us);
      states.insert(states.end(), s.sampled_states.begin(),
                    s.sampled_states.end());
      s.sampled_states.clear();
      family.stats.merge(s);
      ++family.calls;
    }
  }

  // Fig. 7, as bench/bench_fig7.cpp runs it.
  tecfan::core::PolicyOptions popt;
  popt.manage_fan = true;
  popt.fan_period_intervals = fx.server->config().fan_period_intervals;
  tecfan::core::ExhaustiveOptions xopt;
  xopt.base = popt;
  std::shared_ptr<const std::vector<double>> reference;
  const auto server_run = [&](const std::string& id,
                              tecfan::core::PolicyPtr inner, Family& family) {
    StatsSink sink;
    RunResult r;
    const auto t0 = Clock::now();
    {
      TimedPolicy policy(std::move(inner), sink, layers);
      r = fx.server->run(policy, *fx.trace);
    }
    const double wall = us_between(t0, Clock::now()) * 1e-6;
    server_wall_s += wall;
    DecideStats s = sink.take();
    apportion(s, wall);
    results.push_back(result_json(id, r, 1, s.decisions));
    interval_us.merge(s.interval_us);
    family.stats.merge(s);
    ++family.calls;
  };
  server_run("server/oftec", std::make_unique<tecfan::core::OftecPolicy>(xopt),
             srv_oftec);
  server_run("server/tecfan",
             std::make_unique<tecfan::core::TecFanPolicy>(popt), srv_tecfan);
  reference = std::make_shared<std::vector<double>>(
      fx.server->last_capacity_trace());
  server_run("server/oracle",
             std::make_unique<tecfan::core::OraclePolicy>(xopt), srv_oracle);
  server_run("server/oracle-p",
             std::make_unique<tecfan::core::OraclePPolicy>(xopt, reference),
             srv_oracle);

  const double wall_s = us_between(t_start, Clock::now()) * 1e-6;
  const double cpu_s = cpu_seconds() - cpu0;

  std::uint64_t decisions = 0;
  for (const Family* f :
       {&chip_tecfan, &chip_reactive, &srv_tecfan, &srv_oracle, &srv_oftec})
    decisions += f->stats.decisions;
  const std::uint64_t intervals = decisions + base_intervals;

  JsonObject out;
  const auto list = [](const std::vector<std::string>& items) {
    std::string s = "[";
    for (const std::string& item : items) {
      if (s.size() > 1) s += ',';
      s += item;
    }
    return s + "]";
  };
  std::vector<std::string> setup_items;
  for (const double s : setup_s.us) setup_items.push_back(number(s));
  out.raw("setup_s", list(setup_items))
      .num("wall_s", wall_s)
      .num("cpu_s", cpu_s)
      .integer("intervals", intervals)
      .integer("decisions", decisions)
      .integer("latency_samples", interval_us.count())
      .num("p50_us", interval_us.percentile(50.0))
      .num("p99_us", interval_us.percentile(99.0))
      .num("rss_mib", vm_hwm_mib())
      .raw("results", list(results));

  if (layers) {
    const auto mean_decide = [](const std::vector<const Family*>& fams) {
      double sum = 0.0;
      std::uint64_t n = 0;
      for (const Family* f : fams) {
        sum += f->stats.decide_us.sum();
        n += f->stats.decide_us.count();
      }
      return n ? sum / static_cast<double>(n) : 0.0;
    };
    DecideStats chip = chip_tecfan.stats;
    chip.merge(chip_reactive.stats);
    DecideStats exhaustive = srv_oracle.stats;
    exhaustive.merge(srv_oftec.stats);
    double interval_sum = 0.0, decide_sum = 0.0;
    for (const Family* f :
         {&chip_tecfan, &chip_reactive, &srv_tecfan, &srv_oracle, &srv_oftec}) {
      interval_sum += f->stats.interval_us.sum();
      decide_sum += f->stats.decide_us.sum();
    }
    const ThermalProbe thermal = probe_thermal(*fx.engine, states, 400);

    JsonObject l;
    l.num("sim.engine_build_s", setup_s.median())
        .num("sim.sweep_s", sweep_wall_s / static_cast<double>(
                                               chip_tecfan.calls +
                                               chip_reactive.calls))
        .num("sim.server_run_s",
             server_wall_s / static_cast<double>(srv_tecfan.calls +
                                                 srv_oracle.calls +
                                                 srv_oftec.calls))
        .integer("sim.intervals", intervals)
        .num("sim.plant_us_per_interval",
             (interval_sum - decide_sum) / static_cast<double>(decisions))
        .num("core.decide_tecfan_us", mean_decide({&chip_tecfan, &srv_tecfan}))
        .num("core.decide_reactive_us", mean_decide({&chip_reactive}))
        .num("core.decide_oracle_us", mean_decide({&srv_oracle}))
        .num("core.decide_oftec_us", mean_decide({&srv_oftec}))
        .integer("core.decisions", decisions)
        .num("core.predict_us",
             chip.predict_us.count()
                 ? chip.predict_us.sum() /
                       static_cast<double>(chip.predict_us.count())
                 : 0.0)
        .num("core.predicts_per_decision",
             static_cast<double>(chip.predict_us.count()) /
                 static_cast<double>(chip.decisions))
        .num("core.evaluate_batch_ns_per_candidate",
             exhaustive.candidates
                 ? exhaustive.batch_us.sum() * 1e3 /
                       static_cast<double>(exhaustive.candidates)
                 : 0.0)
        .num("core.candidates_per_decision",
             static_cast<double>(exhaustive.candidates) /
                 static_cast<double>(exhaustive.decisions))
        .num("core.evaluated_frac",
             exhaustive.candidate_space
                 ? static_cast<double>(exhaustive.candidates) /
                       static_cast<double>(exhaustive.candidate_space)
                 : 0.0)
        .num("path.base_us", base_wall_s * 1e6)
        .num("path.decide_us", decide_path_us - model_path_us)
        .num("path.model_us", model_path_us)
        .num("path.plant_us",
             (sweep_wall_s + server_wall_s) * 1e6 - decide_path_us);
    add_thermal_fields(l, thermal);
    out.raw("layers", l.dump());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
