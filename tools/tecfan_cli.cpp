// tecfan_cli — run any (policy, workload, fan configuration) from the
// command line and emit results as a table or CSV (trace or summary).
//
//   tecfan_cli --policy tecfan --workload cholesky --threads 16
//   tecfan_cli --policy fan+dvfs --workload lu --fan 7 --csv trace
//   tecfan_cli --policy tecfan --workload radix --sweep --csv summary
//   tecfan_cli --list
//
// Policies: fan-only, fan+tec, fan+dvfs, dvfs+tec, dynamic-fan, tecfan,
// tecfan-chipwide (core::make_named_policy is the registry).
// Workloads: the Table I benchmarks plus the extended set (barnes, ocean,
// radix). Without --fan, the Sec. IV-C sweep picks the level; with --fan N
// the run is pinned to that level.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "cli_flags.h"
#include "core/policy_factory.h"
#include "perf/splash2.h"
#include "sim/chip_simulator.h"
#include "sim/experiment.h"
#include "sim/trace_io.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/units.h"

namespace {

using namespace tecfan;

struct Args {
  std::string policy = "tecfan";
  std::string workload = "cholesky";
  int threads = 16;
  int fan = -1;  // -1: sweep
  std::string csv;  // "", "trace", "summary"
  bool list = false;
  bool help = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: tecfan_cli [--policy P] [--workload W] [--threads N]\n"
      "                  [--fan L] [--csv trace|summary] [--list]\n"
      "  P: fan-only fan+tec fan+dvfs dvfs+tec dynamic-fan tecfan\n"
      "     tecfan-chipwide\n"
      "  W: cholesky fmm volrend water lu barnes ocean radix\n");
}

bool parse(int argc, char** argv, Args& out) {
  return cli::parse_flags(argc, argv, out.help, [&out](auto& f) {
    if (f.is("--policy")) return f.text(out.policy);
    if (f.is("--workload")) return f.text(out.workload);
    if (f.is("--threads")) return f.number(out.threads, 1, 1024);
    if (f.is("--fan")) return f.number(out.fan, 0, 1024);
    if (f.is("--sweep")) {
      out.fan = -1;
      return true;
    }
    if (f.is("--csv")) return f.text(out.csv);
    if (f.is("--list")) return f.set(out.list);
    return f.unknown();
  });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) || args.help) {
    usage();
    return args.help ? 0 : 2;
  }
  if (args.list) {
    std::printf("Table I cases:\n");
    for (const auto& c : perf::table1_cases())
      std::printf("  %-10s %2d threads  (%.1f ms, %.1f W, %.2f C)\n",
                  c.benchmark.c_str(), c.threads, c.time_ms, c.power_w,
                  c.peak_temp_c);
    std::printf("Extended (estimated) cases:\n");
    for (const auto& c : perf::extended_cases())
      std::printf("  %-10s %2d threads  (estimated anchors)\n",
                  c.benchmark.c_str(), c.threads);
    return 0;
  }

  const sim::ChipEnginePtr engine = sim::make_default_chip_engine();
  const sim::ChipModels& models = engine->models();
  sim::ChipSimulator simulator(engine);
  perf::WorkloadPtr workload;
  try {
    workload = engine->workload(args.workload, args.threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // Policies share the scenario's ControlEngine, same as the tecfand
  // service; the CLI is just a single-request client of the same machinery.
  auto factory = [&] {
    return core::make_named_policy(args.policy, engine->control());
  };
  if (!factory()) {
    std::fprintf(stderr, "error: unknown policy '%s'\n",
                 args.policy.c_str());
    usage();
    return 2;
  }

  const sim::RunResult base =
      sim::measure_base_scenario(simulator, *workload);
  sim::RunResult run;
  if (args.fan >= 0) {
    if (args.fan >= models.fan.level_count()) {
      std::fprintf(stderr, "error: fan level out of range (0..%d)\n",
                   models.fan.level_count() - 1);
      return 2;
    }
    sim::RunConfig cfg;
    cfg.threshold_k = base.peak_temp_k;
    cfg.fan_level = args.fan;
    cfg.max_sim_time_s = 2.0;
    auto policy = factory();
    run = simulator.run(*policy, *workload, cfg);
  } else {
    sim::SweepOptions opts;
    opts.threshold_k = base.peak_temp_k;
    opts.record_trace = true;
    if (args.policy.rfind("tecfan", 0) == 0) opts.max_mean_dvfs = 0.5;
    run = sim::run_with_fan_sweep(engine, factory, *workload, opts).chosen;
  }

  if (args.csv == "trace") {
    sim::write_trace_csv(std::cout, run);
    return 0;
  }
  if (args.csv == "summary") {
    sim::write_summary_csv(std::cout, {base, run});
    return 0;
  }

  TextTable t;
  t.set_header({"metric", "base", run.policy});
  t.add_row({"fan level", "0", std::to_string(run.fan_level)});
  t.add_row({"time (ms)", format_double(base.exec_time_s * 1e3, 4),
             format_double(run.exec_time_s * 1e3, 4)});
  t.add_row({"power (W)", format_double(base.avg_total_power_w(), 4),
             format_double(run.avg_total_power_w(), 4)});
  t.add_row({"energy (J)", format_double(base.energy_j, 4),
             format_double(run.energy_j, 4)});
  t.add_row({"EDP (J s)", format_double(base.edp(), 4),
             format_double(run.edp(), 4)});
  t.add_row({"peak T (C)",
             format_double(kelvin_to_celsius(base.peak_temp_k), 4),
             format_double(kelvin_to_celsius(run.peak_temp_k), 4)});
  t.add_row({"violations (%)", "0",
             format_double(100.0 * run.violation_frac, 3)});
  t.add_row({"avg DVFS level", "0", format_double(run.avg_dvfs, 3)});
  std::printf("%s", t.render().c_str());
  return 0;
}
