// Instruments the benchmark wraps around the program's public entry points.
//
// Nothing here reaches inside src/: TimedPolicy and TimedModel are
// decorators over core::Policy and core::PlanningModel. Policies see the
// model only through the PlanningModel interface, so a TimedModel handed
// to decide() observes every predict() and evaluate_batch() call the
// policy makes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/planning.h"
#include "core/policy.h"
#include "thermal/network.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Duration samples in microseconds.
struct Samples {
  std::vector<double> us;

  void add(double v) { us.push_back(v); }
  void merge(const Samples& other) {
    us.insert(us.end(), other.us.begin(), other.us.end());
  }
  std::size_t count() const { return us.size(); }
  double sum() const;
  /// Nearest-rank percentile (p in [0, 100]); 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
};

/// Everything one policy instance observed; merged per policy family.
struct DecideStats {
  std::uint64_t decisions = 0;
  Samples interval_us;  // decide() return to the next decide() return
  Samples decide_us;    // whole decide() call (layers mode)
  Samples predict_us;   // predict() and predict_steady() calls
  Samples batch_us;     // evaluate_batch() calls
  std::uint64_t candidates = 0;        // candidates evaluate_batch() saw
  std::uint64_t candidate_space = 0;   // action-set sizes those came from
  std::uint64_t predicts = 0;  // predict() and predict_steady() calls
  std::vector<tecfan::thermal::CoolingState> sampled_states;

  void merge(const DecideStats& other);
};

/// Thread-safe merge target for policies that run on sweep worker threads.
class StatsSink {
 public:
  void merge(const DecideStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.merge(stats);
  }
  DecideStats take() {
    std::lock_guard<std::mutex> lock(mu_);
    DecideStats out = std::move(stats_);
    stats_ = DecideStats{};
    return out;
  }

 private:
  std::mutex mu_;
  DecideStats stats_;
};

/// Forwards every PlanningModel call to the wrapped model and times the
/// prediction entry points. Given the airflow per fan level, it also keeps
/// the cooling state of every `state_stride`-th predicted candidate.
class TimedModel final : public tecfan::core::PlanningModel {
 public:
  TimedModel(tecfan::core::PlanningModel& inner, DecideStats& stats,
             const std::vector<double>* airflow_by_level,
             std::uint64_t state_stride)
      : inner_(inner),
        stats_(stats),
        airflow_by_level_(airflow_by_level),
        state_stride_(state_stride) {}

  int core_count() const override { return inner_.core_count(); }
  std::size_t tec_count() const override { return inner_.tec_count(); }
  int dvfs_level_count() const override { return inner_.dvfs_level_count(); }
  int fan_level_count() const override { return inner_.fan_level_count(); }
  std::size_t spot_count() const override { return inner_.spot_count(); }
  int core_of_spot(std::size_t spot) const override {
    return inner_.core_of_spot(spot);
  }
  const std::vector<std::size_t>& tecs_over(std::size_t spot) const override {
    return inner_.tecs_over(spot);
  }
  const tecfan::linalg::Vector& sensed_temps() const override {
    return inner_.sensed_temps();
  }
  double threshold_k() const override { return inner_.threshold_k(); }

  tecfan::core::Prediction predict(
      const tecfan::core::KnobState& knobs) override;
  tecfan::core::Prediction predict_steady(
      const tecfan::core::KnobState& knobs) override;
  void evaluate_batch(const tecfan::core::ActionSet::Slice& slice,
                      const tecfan::core::KnobState& base,
                      std::vector<tecfan::core::Prediction>& out) override;

 private:
  void sample_state(const tecfan::core::KnobState& knobs);

  tecfan::core::PlanningModel& inner_;
  DecideStats& stats_;
  const std::vector<double>* airflow_by_level_;
  std::uint64_t state_stride_;
  const tecfan::core::ActionSet* last_set_ = nullptr;
};

/// Forwards to the wrapped policy. It always stamps each decide() return,
/// which gives the per-interval latency at one clock read per interval. With
/// `layers`, it also times decide() itself and hands the policy a
/// TimedModel. The stats merge into `sink` when the policy is destroyed.
class TimedPolicy final : public tecfan::core::Policy {
 public:
  TimedPolicy(tecfan::core::PolicyPtr inner, StatsSink& sink, bool layers,
              const std::vector<double>* airflow_by_level = nullptr,
              std::uint64_t state_stride = 0)
      : inner_(std::move(inner)),
        sink_(sink),
        layers_(layers),
        airflow_by_level_(airflow_by_level),
        state_stride_(state_stride) {}
  ~TimedPolicy() override { sink_.merge(stats_); }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  std::string_view name() const override { return inner_->name(); }
  void reset() override {
    inner_->reset();
    last_ = Clock::now();
  }
  tecfan::core::KnobState decide(tecfan::core::PlanningModel& model,
                                 const tecfan::core::KnobState& current)
      override;

 private:
  tecfan::core::PolicyPtr inner_;
  StatsSink& sink_;
  bool layers_;
  const std::vector<double>* airflow_by_level_;
  std::uint64_t state_stride_;
  DecideStats stats_;
  Clock::time_point last_ = Clock::now();
};

}  // namespace perfbench
