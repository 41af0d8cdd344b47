// Exhaustive-search baselines of Sec. V-E.
//
// Oracle  — solves the Eq. (13) problem exactly each interval by enumerating
//           every (DVFS^N x TEC^L) combination (and fan levels on the fan
//           cadence), picking the lowest predicted EPI that satisfies the
//           temperature constraint. Complexity O(M^N 2^(NL)) — the paper's
//           argument for why it cannot run online.
// Oracle-P — Oracle with an added per-decision performance floor so its
//           delay matches TECfan's (the paper's fair-performance variant):
//           candidates must predict at least the reference IPS.
// OFTEC   — the state-of-the-art cooling-power optimizer [8]: enumerates TEC
//           states (and fan levels) minimizing TEC+fan power under the
//           temperature constraint, with leakage-temperature awareness, but
//           never touches DVFS. The paper runs OFTEC as exhaustive search
//           (Sec. V-A), as we do.
//
// These policies are only meant for small configuration spaces (the paper's
// 4-core setup); every decision enforces a search-space bound.
//
// Structure: the search runs over the ControlEngine's memoized flat
// ActionSet in chunked PlanningModel::evaluate_batch calls (parallel on
// models that override it), then scans the predictions in enumeration
// order with the same first-strictly-better comparisons the old
// per-candidate recursion used — decisions are bit-exact with it. The
// policy classes are thin adapters: shared engine pointer + one workspace.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/control_engine.h"
#include "core/policy.h"

namespace tecfan::core {

struct ExhaustiveOptions {
  PolicyOptions base;
  /// Upper bound on candidates per decision; guards against accidentally
  /// pointing an exponential search at the 16-core chip.
  std::size_t max_candidates = 1u << 20;
};

namespace strategies {

/// One Oracle decision: enumerate DVFS x TEC (x fan on the cadence),
/// minimize EPI subject to the temperature constraint and `ips_floor`.
/// Mutates only `ws` (interval/candidate counters, batch scratch).
KnobState oracle_decide(const ControlEngine& engine,
                        const ExhaustiveOptions& options, double ips_floor,
                        PolicyWorkspace& ws, PlanningModel& model,
                        const KnobState& current);

/// One OFTEC decision: DVFS pinned to the top level, enumerate TEC (x fan
/// on the cadence), minimize cooling + leakage power under the constraint.
KnobState oftec_decide(const ControlEngine& engine,
                       const ExhaustiveOptions& options, PolicyWorkspace& ws,
                       PlanningModel& model, const KnobState& current);

}  // namespace strategies

class OraclePolicy : public Policy {
 public:
  explicit OraclePolicy(ExhaustiveOptions options = {});
  explicit OraclePolicy(ControlEnginePtr engine,
                        ExhaustiveOptions options = {});

  std::string_view name() const override { return "Oracle"; }
  void reset() override;
  KnobState decide(PlanningModel& model, const KnobState& current) override;

  std::size_t last_candidate_count() const { return ws_.candidates; }

 protected:
  /// Performance floor for the decision at `interval` (Oracle-P); returns 0
  /// (no floor) in the plain Oracle.
  virtual double ips_floor(int interval) const;

  ExhaustiveOptions options_;

 private:
  ControlEnginePtr engine_;
  PolicyWorkspace ws_;
};

class OraclePPolicy final : public OraclePolicy {
 public:
  /// `reference_ips`: per-interval chip performance *capability*
  /// (capacity_ips) held by TECfan on the same trace (recorded from a prior
  /// run); Oracle-P may not fall below it, giving it exactly TECfan's
  /// performance posture.
  OraclePPolicy(ExhaustiveOptions options,
                std::shared_ptr<const std::vector<double>> reference_ips);

  std::string_view name() const override { return "Oracle-P"; }

 protected:
  double ips_floor(int interval) const override;

 private:
  std::shared_ptr<const std::vector<double>> reference_ips_;
};

class OftecPolicy final : public Policy {
 public:
  explicit OftecPolicy(ExhaustiveOptions options = {});
  explicit OftecPolicy(ControlEnginePtr engine,
                       ExhaustiveOptions options = {});

  std::string_view name() const override { return "OFTEC"; }
  void reset() override;
  KnobState decide(PlanningModel& model, const KnobState& current) override;

 private:
  ExhaustiveOptions options_;
  ControlEnginePtr engine_;
  PolicyWorkspace ws_;
};

}  // namespace tecfan::core
