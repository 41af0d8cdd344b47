#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "perf/server_model.h"
#include "perf/splash2.h"
#include "perf/wikipedia_trace.h"
#include "power/dvfs.h"
#include "util/error.h"
#include "util/stats.h"

namespace tecfan::perf {
namespace {

struct Models {
  thermal::Floorplan fp = thermal::Floorplan::scc();
  power::DynamicPowerModel dyn = power::DynamicPowerModel::scc_calibrated();
  power::QuadraticLeakageModel leak =
      power::QuadraticLeakageModel::matched_to(power::LinearLeakageModel{});
};

const Models& models() {
  static const Models m;
  return m;
}

SyntheticSplash make(const std::string& bench, int threads) {
  return SyntheticSplash(table1_case(bench, threads), models().fp,
                         models().dyn, models().leak);
}

// --------------------------------------------------------------- table I
TEST(Table1, HasAllEightCases) {
  EXPECT_EQ(table1_cases().size(), 8u);
  std::set<std::string> names;
  for (const auto& c : table1_cases()) names.insert(c.benchmark);
  EXPECT_EQ(names.size(), 5u);  // cholesky fmm volrend water lu
  EXPECT_THROW(table1_case("raytrace", 16), precondition_error);
  EXPECT_THROW(table1_case("water", 16), precondition_error);  // only 4t
}

// --------------------------------------------------- synthetic workloads
class AllTable1Cases
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(AllTable1Cases, IpsAnchoredToPaperTiming) {
  const auto [name, threads] = GetParam();
  const SyntheticSplash wl = make(name, threads);
  const auto& spec = wl.spec();
  // instructions_per_core / base_ips == paper execution time.
  EXPECT_NEAR(wl.instructions_per_core() / wl.base_ips_per_core(),
              spec.time_ms * 1e-3, 1e-12);
  EXPECT_NEAR(wl.instructions_per_core() * threads, spec.instructions, 1);
}

TEST_P(AllTable1Cases, ActiveCoreCountMatchesThreads) {
  const auto [name, threads] = GetParam();
  const SyntheticSplash wl = make(name, threads);
  int active = 0;
  for (int c = 0; c < models().fp.core_count(); ++c)
    if (wl.core_active(c)) ++active;
  EXPECT_EQ(active, threads);
}

TEST_P(AllTable1Cases, ActivityAlwaysInUnitRange) {
  const auto [name, threads] = GetParam();
  const SyntheticSplash wl = make(name, threads);
  for (int core : {0, 5, 15}) {
    for (int k = 0; k < thermal::kComponentsPerTile; ++k) {
      for (double t = 0.0; t < 0.02; t += 0.0013) {
        const double a = wl.activity(
            core, static_cast<thermal::ComponentKind>(k), t);
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
      }
    }
  }
}

TEST_P(AllTable1Cases, MeanChipPowerMatchesCalibrationTarget) {
  // Profile-mean dynamic power + leakage estimate == Table I power (this is
  // how the power scale is derived; the full-simulation check lives in the
  // integration test).
  const auto [name, threads] = GetParam();
  const SyntheticSplash wl = make(name, threads);
  const auto& spec = wl.spec();
  double dyn = 0.0;
  for (const auto& comp : models().fp.components()) {
    const double act = wl.core_active(comp.core)
                           ? wl.profile(comp.kind)
                           : wl.profile(comp.kind) *
                                 SyntheticSplash::kIdleActivity;
    dyn += models().dyn.component_power_w(comp, act, 1.0, wl.power_scale());
  }
  const double leak =
      models().leak.chip_leakage_w(spec.peak_temp_c + 273.15 - 8.0);
  EXPECT_NEAR(dyn + leak, spec.power_w, 0.01 * spec.power_w);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AllTable1Cases,
    ::testing::Values(std::make_pair("cholesky", 16),
                      std::make_pair("cholesky", 4),
                      std::make_pair("fmm", 16), std::make_pair("fmm", 4),
                      std::make_pair("volrend", 16),
                      std::make_pair("water", 4), std::make_pair("lu", 16),
                      std::make_pair("lu", 4)));

TEST(ExtendedCases, ProfilesExistAndAreUsable) {
  EXPECT_EQ(extended_cases().size(), 3u);
  for (const auto& c : extended_cases()) {
    const SyntheticSplash wl(c, models().fp, models().dyn, models().leak);
    EXPECT_GT(wl.power_scale(), 0.0);
    EXPECT_GT(wl.base_ips_per_core(), 0.0);
    // radix is an integer sort: no FP activity to speak of.
    if (c.benchmark == "radix") {
      EXPECT_LT(wl.profile(thermal::ComponentKind::kFpMul), 0.2);
      EXPECT_GT(wl.profile(thermal::ComponentKind::kIntExec), 0.6);
    }
    // ocean is memory-bound: L2 above the FP cluster.
    if (c.benchmark == "ocean") {
      EXPECT_GT(wl.profile(thermal::ComponentKind::kL2),
                wl.profile(thermal::ComponentKind::kFpMul));
    }
  }
  // Lookup reaches the extended set too.
  EXPECT_NO_THROW(table1_case("barnes", 16));
  EXPECT_THROW(table1_case("barnes", 4), precondition_error);
}

TEST(SyntheticSplash, DeterministicAcrossInstances) {
  const SyntheticSplash a = make("cholesky", 16);
  const SyntheticSplash b = make("cholesky", 16);
  for (double t : {0.0, 0.003, 0.017})
    EXPECT_DOUBLE_EQ(
        a.activity(3, thermal::ComponentKind::kFpMul, t),
        b.activity(3, thermal::ComponentKind::kFpMul, t));
}

TEST(SyntheticSplash, SeedChangesPhases) {
  const SyntheticSplash a(table1_case("cholesky", 16), models().fp,
                          models().dyn, models().leak, 1);
  const SyntheticSplash b(table1_case("cholesky", 16), models().fp,
                          models().dyn, models().leak, 2);
  bool differs = false;
  for (double t : {0.001, 0.004, 0.009})
    if (a.activity(0, thermal::ComponentKind::kFpMul, t) !=
        b.activity(0, thermal::ComponentKind::kFpMul, t))
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(SyntheticSplash, IdleCoresAreQuietAndStatic) {
  const SyntheticSplash wl = make("cholesky", 4);
  for (int c = 0; c < 16; ++c) {
    if (wl.core_active(c)) continue;
    const double a0 = wl.activity(c, thermal::ComponentKind::kFpMul, 0.0);
    const double a1 = wl.activity(c, thermal::ComponentKind::kFpMul, 0.01);
    EXPECT_DOUBLE_EQ(a0, a1);  // no program phases on idle cores
    EXPECT_LT(a0, 0.1);
    EXPECT_DOUBLE_EQ(wl.ips_factor(c, 0.005), 0.0);
  }
}

TEST(SyntheticSplash, FourThreadMappingUsesCentreTiles) {
  const SyntheticSplash wl = make("cholesky", 4);
  // On the 4x4 grid the centre cluster is cores {5, 6, 9, 10}.
  for (int c : {5, 6, 9, 10}) EXPECT_TRUE(wl.core_active(c));
  for (int c : {0, 3, 12, 15}) EXPECT_FALSE(wl.core_active(c));
}

TEST(SyntheticSplash, CholeskyIsFpSkewedVolrendUniform) {
  const SyntheticSplash chol = make("cholesky", 16);
  const SyntheticSplash vol = make("volrend", 16);
  const double chol_skew = chol.profile(thermal::ComponentKind::kFpMul) /
                           chol.profile(thermal::ComponentKind::kL2);
  const double vol_skew = vol.profile(thermal::ComponentKind::kFpMul) /
                          vol.profile(thermal::ComponentKind::kL2);
  EXPECT_GT(chol_skew, 2.0);
  EXPECT_LT(vol_skew, 1.0);
}

TEST(SyntheticSplash, IpsFactorMeanNearOne) {
  const SyntheticSplash wl = make("fmm", 16);
  RunningStats s;
  for (double t = 0.0; t < 0.0591; t += 1e-4) s.add(wl.ips_factor(2, t));
  EXPECT_NEAR(s.mean(), 1.0, 0.03);
}

// --------------------------------------------------------------- wikipedia
TEST(WikipediaTrace, MeanDemandMatchesPaper) {
  const WikipediaTrace trace;
  EXPECT_NEAR(trace.mean_demand_40min(), 0.486, 1e-6);
}

TEST(WikipediaTrace, DeterministicInSeed) {
  const WikipediaTrace a(1.5, 7), b(1.5, 7), c(1.5, 8);
  EXPECT_DOUBLE_EQ(a.demand(1234.0), b.demand(1234.0));
  EXPECT_NE(a.demand(1234.0), c.demand(1234.0));
}

TEST(WikipediaTrace, DemandPositiveAndBounded) {
  const WikipediaTrace trace;
  for (double t = 0.0; t < WikipediaTrace::kDays * 86400.0; t += 3600.0) {
    const double d = trace.demand(t);
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 2.0);
  }
}

TEST(WikipediaTrace, DiurnalPatternVisible) {
  // Average over the same hour across days differs between night and
  // afternoon.
  const WikipediaTrace trace;
  double night = 0.0, afternoon = 0.0;
  for (int day = 0; day < 7; ++day) {
    night += trace.demand(day * 86400.0 + 4 * 3600.0);
    afternoon += trace.demand(day * 86400.0 + 15 * 3600.0);
  }
  EXPECT_GT(afternoon, night * 1.1);
}

TEST(WikipediaTrace, CoreSegmentsAreContiguousSlices) {
  const WikipediaTrace trace;
  EXPECT_DOUBLE_EQ(trace.core_demand(0, 30.0), trace.demand(30.0));
  EXPECT_DOUBLE_EQ(trace.core_demand(2, 30.0), trace.demand(1230.0));
  EXPECT_THROW(trace.core_demand(4, 0.0), precondition_error);
  EXPECT_THROW(trace.core_demand(0, -1.0), precondition_error);
}

TEST(WikipediaTrace, ScaleAppliedMultiplicatively) {
  // Both traces are normalized to the same 40-min mean, so scale only
  // matters through the normalization path; verify construction succeeds
  // and stays positive for other scales.
  const WikipediaTrace t2(2.0, 2016, 0.6);
  EXPECT_NEAR(t2.mean_demand_40min(), 0.6, 1e-6);
}

// ------------------------------------------------------------ server model
TEST(ServerModel, CapacityConcaveAndNormalized) {
  const power::DvfsTable dvfs = power::DvfsTable::core_i7();
  const ServerCoreModel m;
  EXPECT_NEAR(m.relative_capacity(dvfs, 0), 1.0, 1e-12);
  double prev = 1.0;
  for (int l = 1; l < dvfs.level_count(); ++l) {
    const double cap = m.relative_capacity(dvfs, l);
    EXPECT_LT(cap, prev);
    // Concavity: capacity falls slower than frequency.
    EXPECT_GT(cap, dvfs.freq_scale(0, l));
    prev = cap;
  }
}

TEST(ServerModel, UtilizationAndSaturation) {
  const power::DvfsTable dvfs = power::DvfsTable::core_i7();
  const ServerCoreModel m;
  EXPECT_NEAR(m.utilization(dvfs, 0, 0.5), 0.5, 1e-12);
  EXPECT_GT(m.utilization(dvfs, dvfs.slowest_level(), 0.5), 0.5);
  EXPECT_DOUBLE_EQ(m.served(dvfs, 0, 0.5), 0.5);
  const double cap_min = m.relative_capacity(dvfs, dvfs.slowest_level());
  EXPECT_DOUBLE_EQ(m.served(dvfs, dvfs.slowest_level(), 2.0), cap_min);
  EXPECT_THROW(m.utilization(dvfs, 0, -0.1), precondition_error);
}

TEST(ServerModel, PowerMonotoneInUtilizationAndFrequency) {
  const power::DvfsTable dvfs = power::DvfsTable::core_i7();
  const ServerCoreModel m;
  EXPECT_NEAR(m.power_w(dvfs, 0, 0.0), m.idle_power_w, 1e-12);
  EXPECT_NEAR(m.power_w(dvfs, 0, 1.0), m.busy_power_top_w, 1e-12);
  EXPECT_LT(m.power_w(dvfs, 2, 0.7), m.power_w(dvfs, 0, 0.7));
  // Clamped above 1.
  EXPECT_DOUBLE_EQ(m.power_w(dvfs, 0, 1.5), m.power_w(dvfs, 0, 1.0));
}

}  // namespace
}  // namespace tecfan::perf
