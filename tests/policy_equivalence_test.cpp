// PolicyEquivalence: the engine/workspace control layer must reproduce the
// pre-refactor policies' decisions bit-exactly.
//
// The `legacy` namespace below is a verbatim copy of the policy
// implementations as they existed before the ControlEngine refactor (own
// interval counters, per-candidate recursion in the exhaustives, scalar
// predict loops). Each test drives the legacy and the current policy
// through identical scenarios — full chip simulations on the Table I
// workloads, scripted server-model intervals for the exhaustive baselines —
// and requires the recorded action sequences to match exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/exhaustive_policies.h"
#include "core/policy_factory.h"
#include "core/reactive_policies.h"
#include "core/tecfan_policy.h"
#include "perf/splash2.h"
#include "sim/chip_engine.h"
#include "sim/chip_simulator.h"
#include "sim/experiment.h"
#include "sim/server_system.h"

namespace tecfan::perf {

// Names each Table I row in gtest's listing, and so in the ctest name, as
// "cholesky_16" rather than as the struct's raw bytes.
void PrintTo(const Table1Case& c, std::ostream* os) {
  *os << c.benchmark << '_' << c.threads;
}

}  // namespace tecfan::perf

namespace tecfan {
namespace {

using core::KnobState;
using core::PlanningModel;
using core::PolicyOptions;
using core::Prediction;

// ===================================================================
// Verbatim pre-refactor implementations (do not modernize).
// ===================================================================
namespace legacy {

struct BestTracker {
  KnobState knobs;
  double epi = std::numeric_limits<double>::infinity();
  bool valid = false;

  void consider(const KnobState& k, const Prediction& p, double tth) {
    if (p.max_temp_k() > tth) return;
    if (!valid || p.epi() < epi) {
      knobs = k;
      epi = p.epi();
      valid = true;
    }
  }
};

class TecFanPolicy final : public core::Policy {
 public:
  explicit TecFanPolicy(PolicyOptions options = {}) : options_(options) {}

  std::string_view name() const override { return "TECfan"; }
  void reset() override {
    interval_ = 0;
    predictions_ = 0;
  }
  KnobState decide(PlanningModel& model, const KnobState& current) override {
    predictions_ = 0;
    KnobState cand = current;
    if (options_.manage_fan &&
        interval_ % options_.fan_period_intervals == 0)
      cand.fan_level = fan_decision(model, cand);
    ++interval_;
    return lower_level(model, std::move(cand));
  }

  std::size_t last_prediction_count() const { return predictions_; }

 private:
  Prediction predict(PlanningModel& model, const KnobState& k) {
    ++predictions_;
    return model.predict(k);
  }

  KnobState lower_level(PlanningModel& model, KnobState cand) {
    const double tth = model.threshold_k() - options_.constraint_margin_k;
    const int cores = model.core_count();
    const int slowest = model.dvfs_level_count() - 1;
    BestTracker best;

    Prediction pred = predict(model, cand);
    best.consider(cand, pred, tth);

    const int max_iters = static_cast<int>(model.tec_count()) +
                          cores * model.dvfs_level_count() + 4;

    if (pred.max_temp_k() > tth) {
      for (int it = 0; it < max_iters && pred.max_temp_k() > tth; ++it) {
        std::size_t chosen_tec = model.tec_count();
        double hottest = tth;
        for (std::size_t s = 0; s < model.spot_count(); ++s) {
          const double t = pred.spot_temps_k[s];
          if (t <= hottest) continue;
          for (std::size_t dev : model.tecs_over(s)) {
            if (!cand.tec_on[dev]) {
              hottest = t;
              chosen_tec = dev;
              break;
            }
          }
        }
        if (chosen_tec < model.tec_count()) {
          cand.tec_on[chosen_tec] = 1;
          pred = predict(model, cand);
          best.consider(cand, pred, tth);
          continue;
        }
        KnobState chosen;
        Prediction chosen_pred;
        double best_epi = std::numeric_limits<double>::infinity();
        bool found = false;
        if (options_.chip_wide_dvfs) {
          KnobState trial = cand;
          bool moved = false;
          for (auto& d : trial.dvfs)
            if (d < slowest) {
              ++d;
              moved = true;
            }
          if (moved) {
            chosen_pred = predict(model, trial);
            chosen = std::move(trial);
            found = true;
          }
        } else {
          for (int n = 0; n < cores; ++n) {
            const auto ni = static_cast<std::size_t>(n);
            if (cand.dvfs[ni] >= slowest) continue;
            KnobState trial = cand;
            ++trial.dvfs[ni];
            Prediction p = predict(model, trial);
            if (!found || p.epi() < best_epi) {
              best_epi = p.epi();
              chosen = std::move(trial);
              chosen_pred = std::move(p);
              found = true;
            }
          }
        }
        if (!found) break;
        cand = std::move(chosen);
        pred = std::move(chosen_pred);
        best.consider(cand, pred, tth);
      }
      return best.valid ? best.knobs : cand;
    }

    for (int it = 0; it < max_iters; ++it) {
      KnobState chosen;
      Prediction chosen_pred;
      bool found = false;
      double best_epi = std::numeric_limits<double>::infinity();
      if (options_.chip_wide_dvfs) {
        KnobState trial = cand;
        bool moved = false;
        for (auto& d : trial.dvfs)
          if (d > 0) {
            --d;
            moved = true;
          }
        if (moved) {
          Prediction p = predict(model, trial);
          if (p.ips > pred.ips * (1.0 + 1e-9)) {
            chosen = std::move(trial);
            chosen_pred = std::move(p);
            found = true;
          }
        }
      } else {
        for (int n = 0; n < cores; ++n) {
          const auto ni = static_cast<std::size_t>(n);
          if (cand.dvfs[ni] <= 0) continue;
          KnobState trial = cand;
          --trial.dvfs[ni];
          Prediction p = predict(model, trial);
          if (p.ips <= pred.ips * (1.0 + 1e-9)) continue;
          if (!found || p.epi() < best_epi) {
            best_epi = p.epi();
            chosen = std::move(trial);
            chosen_pred = std::move(p);
            found = true;
          }
        }
      }
      if (!found) {
        std::size_t chosen_tec = model.tec_count();
        double coolest = std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < model.spot_count(); ++s) {
          const double t = pred.spot_temps_k[s];
          if (t >= coolest) continue;
          for (std::size_t dev : model.tecs_over(s)) {
            if (cand.tec_on[dev]) {
              coolest = t;
              chosen_tec = dev;
              break;
            }
          }
        }
        if (chosen_tec == model.tec_count()) break;
        chosen = cand;
        chosen.tec_on[chosen_tec] = 0;
        chosen_pred = predict(model, chosen);
        found = true;
      }
      if (chosen_pred.max_temp_k() > tth) break;
      cand = std::move(chosen);
      pred = std::move(chosen_pred);
    }
    return cand;
  }

  int fan_decision(PlanningModel& model, const KnobState& current) {
    const double tth = model.threshold_k();
    const int slowest = model.fan_level_count() - 1;
    KnobState trial = current;
    Prediction at_current = model.predict_steady(trial);
    if (at_current.max_temp_k() > tth) {
      int lvl = current.fan_level;
      while (lvl > 0) {
        --lvl;
        trial.fan_level = lvl;
        if (model.predict_steady(trial).max_temp_k() <= tth) break;
      }
      return lvl;
    }
    int lvl = current.fan_level;
    while (lvl < slowest) {
      trial.fan_level = lvl + 1;
      if (model.predict_steady(trial).max_temp_k() >
          tth - options_.fan_margin_k)
        break;
      ++lvl;
    }
    return lvl;
  }

  PolicyOptions options_;
  int interval_ = 0;
  std::size_t predictions_ = 0;
};

void enumerate_tec_dvfs(const PlanningModel& model, KnobState knobs,
                        bool include_dvfs,
                        const std::function<void(const KnobState&)>& visit) {
  const std::size_t n_tec = model.tec_count();
  const auto cores = static_cast<std::size_t>(model.core_count());
  const int levels = model.dvfs_level_count();
  const std::uint64_t tec_combos = 1ull << n_tec;

  std::function<void(std::size_t)> dvfs_rec = [&](std::size_t core) {
    if (core == cores || !include_dvfs) {
      for (std::uint64_t mask = 0; mask < tec_combos; ++mask) {
        for (std::size_t t = 0; t < n_tec; ++t)
          knobs.tec_on[t] = (mask >> t) & 1u ? 1 : 0;
        visit(knobs);
      }
      return;
    }
    for (int lvl = 0; lvl < levels; ++lvl) {
      knobs.dvfs[core] = lvl;
      dvfs_rec(core + 1);
    }
  };
  dvfs_rec(0);
}

class OraclePolicy : public core::Policy {
 public:
  explicit OraclePolicy(core::ExhaustiveOptions options = {})
      : options_(options) {}

  std::string_view name() const override { return "Oracle"; }
  void reset() override {
    interval_ = 0;
    candidates_ = 0;
  }
  KnobState decide(PlanningModel& model, const KnobState& current) override {
    const bool fan_turn =
        options_.base.manage_fan &&
        interval_ % options_.base.fan_period_intervals == 0;

    const double tth =
        model.threshold_k() - options_.base.constraint_margin_k;
    const double floor = ips_floor(interval_);
    ++interval_;
    candidates_ = 0;

    KnobState best = current;
    double best_epi = std::numeric_limits<double>::infinity();
    bool best_valid = false;
    KnobState coolest = current;
    double coolest_t = std::numeric_limits<double>::infinity();

    auto visit = [&](const KnobState& k) {
      ++candidates_;
      const Prediction p = model.predict(k);
      const double t = p.max_temp_k();
      if (t < coolest_t) {
        coolest_t = t;
        coolest = k;
      }
      if (t > tth) return;
      if (p.capacity_ips + 1e-9 < floor) return;
      if (!best_valid || p.epi() < best_epi) {
        best_epi = p.epi();
        best = k;
        best_valid = true;
      }
    };

    KnobState tmpl = current;
    if (fan_turn) {
      for (int lvl = 0; lvl < model.fan_level_count(); ++lvl) {
        tmpl.fan_level = lvl;
        enumerate_tec_dvfs(model, tmpl, /*include_dvfs=*/true, visit);
      }
    } else {
      enumerate_tec_dvfs(model, tmpl, /*include_dvfs=*/true, visit);
    }
    return best_valid ? best : coolest;
  }

  std::size_t last_candidate_count() const { return candidates_; }

 protected:
  virtual double ips_floor(int) const { return 0.0; }

  core::ExhaustiveOptions options_;

 private:
  int interval_ = 0;
  std::size_t candidates_ = 0;
};

class OftecPolicy final : public core::Policy {
 public:
  explicit OftecPolicy(core::ExhaustiveOptions options = {})
      : options_(options) {}

  std::string_view name() const override { return "OFTEC"; }
  void reset() override { interval_ = 0; }
  KnobState decide(PlanningModel& model, const KnobState& current) override {
    const bool fan_turn =
        options_.base.manage_fan &&
        interval_ % options_.base.fan_period_intervals == 0;
    ++interval_;

    const double tth =
        model.threshold_k() - options_.base.constraint_margin_k;
    KnobState best = current;
    for (auto& d : best.dvfs) d = 0;
    double best_cooling = std::numeric_limits<double>::infinity();
    bool best_valid = false;
    KnobState coolest = best;
    double coolest_t = std::numeric_limits<double>::infinity();

    auto visit = [&](const KnobState& k) {
      const Prediction p = model.predict(k);
      const double t = p.max_temp_k();
      if (t < coolest_t) {
        coolest_t = t;
        coolest = k;
      }
      if (t > tth) return;
      const double cooling = p.power.cooling_w() + p.power.leakage_w;
      if (!best_valid || cooling < best_cooling) {
        best_cooling = cooling;
        best = k;
        best_valid = true;
      }
    };

    KnobState tmpl = best;
    if (fan_turn) {
      for (int lvl = 0; lvl < model.fan_level_count(); ++lvl) {
        tmpl.fan_level = lvl;
        enumerate_tec_dvfs(model, tmpl, /*include_dvfs=*/false, visit);
      }
    } else {
      enumerate_tec_dvfs(model, tmpl, /*include_dvfs=*/false, visit);
    }
    return best_valid ? best : coolest;
  }

 private:
  core::ExhaustiveOptions options_;
  int interval_ = 0;
};

}  // namespace legacy

// ===================================================================
// Harness
// ===================================================================

/// Wraps a policy and records every decision it makes.
class RecordingPolicy final : public core::Policy {
 public:
  explicit RecordingPolicy(core::PolicyPtr inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  KnobState decide(PlanningModel& model, const KnobState& current) override {
    KnobState k = inner_->decide(model, current);
    decisions.push_back(k);
    return k;
  }

  std::vector<KnobState> decisions;

 private:
  core::PolicyPtr inner_;
};

const sim::ChipEnginePtr& chip_engine() {
  static const sim::ChipEnginePtr e = sim::make_default_chip_engine();
  return e;
}

/// Run `policy` on the default chip for a short horizon and return the
/// per-interval action sequence.
std::vector<KnobState> chip_decisions(core::PolicyPtr policy,
                                      const std::string& bench, int threads,
                                      bool manage_fan) {
  auto wl = chip_engine()->workload(bench, threads);
  sim::ChipSimulator simulator(chip_engine());
  const sim::RunResult base =
      sim::measure_base_scenario(simulator, *wl, /*max_sim_time_s=*/0.05);

  RecordingPolicy rec(std::move(policy));
  sim::RunConfig cfg;
  cfg.threshold_k = base.peak_temp_k;
  cfg.fan_level = manage_fan ? 4 : 2;
  cfg.policy_manages_fan = manage_fan;
  cfg.max_sim_time_s = 0.02;  // 10 control intervals
  cfg.record_trace = false;
  simulator.run(rec, *wl, cfg);
  return rec.decisions;
}

void expect_same_decisions(const std::vector<KnobState>& legacy_seq,
                           const std::vector<KnobState>& current_seq) {
  ASSERT_FALSE(legacy_seq.empty());
  ASSERT_EQ(legacy_seq.size(), current_seq.size());
  for (std::size_t i = 0; i < legacy_seq.size(); ++i) {
    EXPECT_EQ(legacy_seq[i], current_seq[i]) << "interval " << i;
  }
}

// ===================================================================
// TECfan on the Table I workloads
// ===================================================================

class PolicyEquivalence : public ::testing::TestWithParam<perf::Table1Case> {
};

TEST_P(PolicyEquivalence, TecFanMatchesLegacyOnChip) {
  const perf::Table1Case& c = GetParam();
  expect_same_decisions(
      chip_decisions(std::make_unique<legacy::TecFanPolicy>(), c.benchmark,
                     c.threads, /*manage_fan=*/false),
      chip_decisions(
          std::make_unique<core::TecFanPolicy>(chip_engine()->control()),
          c.benchmark, c.threads, /*manage_fan=*/false));
}

INSTANTIATE_TEST_SUITE_P(Table1, PolicyEquivalence,
                         ::testing::ValuesIn(perf::table1_cases()));

TEST(PolicyEquivalenceExtra, TecFanWithFanCadenceMatchesLegacy) {
  PolicyOptions opt;
  opt.manage_fan = true;
  opt.fan_period_intervals = 4;
  expect_same_decisions(
      chip_decisions(std::make_unique<legacy::TecFanPolicy>(opt), "cholesky",
                     16, /*manage_fan=*/true),
      chip_decisions(std::make_unique<core::TecFanPolicy>(
                         chip_engine()->control(), opt),
                     "cholesky", 16, /*manage_fan=*/true));
}

TEST(PolicyEquivalenceExtra, ChipWideTecFanMatchesLegacy) {
  PolicyOptions opt;
  opt.chip_wide_dvfs = true;
  expect_same_decisions(
      chip_decisions(std::make_unique<legacy::TecFanPolicy>(opt), "lu", 16,
                     /*manage_fan=*/false),
      chip_decisions(std::make_unique<core::TecFanPolicy>(
                         chip_engine()->control(), opt),
                     "lu", 16, /*manage_fan=*/false));
}

// ===================================================================
// Exhaustive baselines on the 4-core server model (scripted intervals)
// ===================================================================

/// Drive `model` through a deterministic scripted interval sequence,
/// calling both policies on identical observations and asserting equal
/// decisions throughout. Returns the number of intervals compared.
int compare_on_server(core::Policy& legacy_policy, core::Policy& current_policy,
                      bool expect_nonconstant = true) {
  sim::ServerConfig cfg;
  auto thermal = std::make_shared<const sim::ServerThermalModel>(cfg.thermal);
  sim::ServerPlanningModel model(thermal, cfg);

  const int kIntervals = 10;
  KnobState cur_legacy = KnobState::initial(4, 4, /*fan_level=*/5);
  KnobState cur_current = cur_legacy;
  bool saw_change = false;
  for (int i = 0; i < kIntervals; ++i) {
    sim::ServerPlanningModel::Observation obs;
    obs.core_temps_k.resize(4);
    obs.demand.resize(4);
    for (int n = 0; n < 4; ++n) {
      // Sawtooth around the threshold so hot and cool paths both trigger.
      obs.core_temps_k[static_cast<std::size_t>(n)] =
          cfg.threshold_k - 6.0 + 1.5 * ((i + n) % 8);
      obs.demand[static_cast<std::size_t>(n)] = 0.25 + 0.15 * ((i + n) % 5);
    }
    obs.applied = cur_legacy;
    model.observe(obs);

    const KnobState d_legacy = legacy_policy.decide(model, cur_legacy);
    const KnobState d_current = current_policy.decide(model, cur_current);
    EXPECT_EQ(d_legacy, d_current) << "interval " << i;
    if (!(d_legacy == cur_legacy)) saw_change = true;
    cur_legacy = d_legacy;
    cur_current = d_current;
  }
  if (expect_nonconstant) {
    EXPECT_TRUE(saw_change) << "scenario never exercised the policy";
  }
  return kIntervals;
}

TEST(PolicyEquivalenceExtra, OracleMatchesLegacyOnServerModel) {
  core::ExhaustiveOptions opt;
  opt.base.manage_fan = true;
  opt.base.fan_period_intervals = 3;
  legacy::OraclePolicy legacy_policy(opt);
  core::OraclePolicy current_policy(opt);
  compare_on_server(legacy_policy, current_policy);
  // The batch scan must also visit exactly the candidates the recursion did.
  EXPECT_EQ(legacy_policy.last_candidate_count(),
            current_policy.last_candidate_count());
  EXPECT_GT(current_policy.last_candidate_count(), 0u);
}

TEST(PolicyEquivalenceExtra, OftecMatchesLegacyOnServerModel) {
  core::ExhaustiveOptions opt;
  opt.base.manage_fan = true;
  opt.base.fan_period_intervals = 2;
  legacy::OftecPolicy legacy_policy(opt);
  core::OftecPolicy current_policy(opt);
  compare_on_server(legacy_policy, current_policy);
}

TEST(PolicyEquivalenceExtra, OracleGuardMessageUnchanged) {
  // The 16-core chip's search space must still be rejected up front with
  // the pre-refactor diagnostics (policies check before enumerating).
  sim::ChipSimulator simulator(chip_engine());
  auto wl = chip_engine()->workload("cholesky", 16);
  sim::RunConfig cfg;
  cfg.threshold_k = 400.0;
  cfg.max_sim_time_s = 0.004;
  core::OraclePolicy oracle{chip_engine()->control()};
  try {
    simulator.run(oracle, *wl, cfg);
    FAIL() << "Oracle on the 16-core chip must throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "Oracle search space exceeds the configured bound"),
              std::string::npos)
        << e.what();
  }
  core::OftecPolicy oftec{chip_engine()->control()};
  try {
    simulator.run(oftec, *wl, cfg);
    FAIL() << "OFTEC on the 16-core chip must throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "OFTEC search space exceeds the configured bound"),
              std::string::npos)
        << e.what();
  }
}

// ===================================================================
// Parallel fan sweep == serial fan sweep
// ===================================================================

TEST(PolicyEquivalenceExtra, ParallelSweepMatchesSerialSweep) {
  const sim::ChipEnginePtr engine = sim::make_chip_engine(2, 2);
  auto wl = engine->workload("cholesky", 4);
  sim::ChipSimulator simulator(engine);
  const sim::RunResult base =
      sim::measure_base_scenario(simulator, *wl, /*max_sim_time_s=*/0.1);

  auto factory = [&] {
    return core::make_named_policy("fan+dvfs", engine->control());
  };
  sim::SweepOptions serial_opts;
  serial_opts.threshold_k = base.peak_temp_k;
  serial_opts.max_sim_time_s = 0.1;
  serial_opts.parallel = false;
  sim::SweepOptions par_opts = serial_opts;
  par_opts.parallel = true;

  const sim::SweepResult serial =
      sim::run_with_fan_sweep(engine, factory, *wl, serial_opts);
  const sim::SweepResult parallel =
      sim::run_with_fan_sweep(engine, factory, *wl, par_opts);

  ASSERT_EQ(serial.per_level.size(), parallel.per_level.size());
  for (std::size_t i = 0; i < serial.per_level.size(); ++i) {
    const sim::RunResult& a = serial.per_level[i];
    const sim::RunResult& b = parallel.per_level[i];
    EXPECT_EQ(a.fan_level, b.fan_level);
    EXPECT_EQ(a.exec_time_s, b.exec_time_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.peak_temp_k, b.peak_temp_k);
    EXPECT_EQ(a.mean_peak_temp_k, b.mean_peak_temp_k);
    EXPECT_EQ(a.violation_frac, b.violation_frac);
    EXPECT_EQ(a.avg_dvfs, b.avg_dvfs);
  }
  EXPECT_EQ(serial.chosen.fan_level, parallel.chosen.fan_level);
  EXPECT_EQ(serial.chosen.energy_j, parallel.chosen.energy_j);
}

}  // namespace
}  // namespace tecfan
