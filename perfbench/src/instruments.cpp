#include "instruments.h"

#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::sum() const { return std::accumulate(us.begin(), us.end(), 0.0); }

double Samples::percentile(double p) const {
  if (us.empty()) return 0.0;
  std::vector<double> sorted = us;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  const std::size_t idx = std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

void DecideStats::merge(const DecideStats& other) {
  decisions += other.decisions;
  interval_us.merge(other.interval_us);
  decide_us.merge(other.decide_us);
  predict_us.merge(other.predict_us);
  batch_us.merge(other.batch_us);
  candidates += other.candidates;
  candidate_space += other.candidate_space;
  predicts += other.predicts;
  sampled_states.insert(sampled_states.end(), other.sampled_states.begin(),
                        other.sampled_states.end());
}

void TimedModel::sample_state(const tecfan::core::KnobState& knobs) {
  if (airflow_by_level_ == nullptr || state_stride_ == 0 ||
      stats_.predicts++ % state_stride_ != 0)
    return;
  tecfan::thermal::CoolingState state;
  state.tec_on = knobs.tec_on;
  state.airflow_cfm =
      (*airflow_by_level_)[static_cast<std::size_t>(knobs.fan_level)];
  stats_.sampled_states.push_back(std::move(state));
}

tecfan::core::Prediction TimedModel::predict(
    const tecfan::core::KnobState& knobs) {
  sample_state(knobs);
  const auto t0 = Clock::now();
  tecfan::core::Prediction p = inner_.predict(knobs);
  stats_.predict_us.add(us_between(t0, Clock::now()));
  return p;
}

tecfan::core::Prediction TimedModel::predict_steady(
    const tecfan::core::KnobState& knobs) {
  sample_state(knobs);
  const auto t0 = Clock::now();
  tecfan::core::Prediction p = inner_.predict_steady(knobs);
  stats_.predict_us.add(us_between(t0, Clock::now()));
  return p;
}

void TimedModel::evaluate_batch(const tecfan::core::ActionSet::Slice& slice,
                                const tecfan::core::KnobState& base,
                                std::vector<tecfan::core::Prediction>& out) {
  const auto t0 = Clock::now();
  inner_.evaluate_batch(slice, base, out);
  stats_.batch_us.add(us_between(t0, Clock::now()));
  stats_.candidates += slice.size();
  // Each action set a decision draws from counts once toward the space
  // it could have evaluated, however many slices it is cut into.
  if (slice.set != last_set_ && slice.set != nullptr) {
    stats_.candidate_space += slice.set->size();
    last_set_ = slice.set;
  }
}

tecfan::core::KnobState TimedPolicy::decide(
    tecfan::core::PlanningModel& model,
    const tecfan::core::KnobState& current) {
  tecfan::core::KnobState next;
  if (!layers_) {
    next = inner_->decide(model, current);
  } else {
    TimedModel timed(model, stats_, airflow_by_level_, state_stride_);
    const auto t0 = Clock::now();
    next = inner_->decide(timed, current);
    stats_.decide_us.add(us_between(t0, Clock::now()));
  }
  const auto now = Clock::now();
  stats_.interval_us.add(us_between(last_, now));
  last_ = now;
  ++stats_.decisions;
  return next;
}

}  // namespace perfbench
