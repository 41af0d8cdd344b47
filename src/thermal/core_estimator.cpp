#include "thermal/core_estimator.h"

#include <algorithm>
#include <cmath>

#include "linalg/ordering.h"
#include "util/error.h"

namespace tecfan::thermal {

CoreEstimator::CoreEstimator(std::shared_ptr<const ChipThermalModel> model,
                             int core)
    : model_(std::move(model)), core_(core) {
  TECFAN_REQUIRE(model_ != nullptr, "CoreEstimator requires a model");
  TECFAN_REQUIRE(core >= 0 && core < model_->floorplan().core_count(),
                 "core out of range");
  const auto& m = *model_;

  // Local node set: this tile's die components and TEC faces.
  std::vector<std::size_t> raw_locals;
  for (std::size_t c : m.floorplan().components_of_core(core))
    raw_locals.push_back(m.die_node(c));
  const std::size_t dev_base = m.tec_base_of_tile(core);
  const auto devs = static_cast<std::size_t>(m.tec().devices_per_tile());
  for (std::size_t d = 0; d < devs; ++d) {
    raw_locals.push_back(m.tec_cold_node(dev_base + d));
    raw_locals.push_back(m.tec_hot_node(dev_base + d));
    dev_global_.push_back(dev_base + d);
  }

  // Extract the local sub-pattern of the base conductance matrix and order
  // it with reverse Cuthill–McKee for a tight band.
  const auto& g0 = m.base_conductance();
  std::vector<std::ptrdiff_t> raw_index(m.node_count(), -1);
  for (std::size_t i = 0; i < raw_locals.size(); ++i)
    raw_index[raw_locals[i]] = static_cast<std::ptrdiff_t>(i);

  const std::size_t n = raw_locals.size();
  std::vector<std::vector<std::size_t>> graph(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gi = raw_locals[i];
    for (std::size_t k = g0.row_offsets()[gi]; k < g0.row_offsets()[gi + 1];
         ++k) {
      const std::ptrdiff_t j = raw_index[g0.col_indices()[k]];
      if (j >= 0 && static_cast<std::size_t>(j) != i)
        graph[i].push_back(static_cast<std::size_t>(j));
    }
  }
  const std::vector<std::size_t> perm = linalg::reverse_cuthill_mckee(graph);
  bandwidth_ = linalg::bandwidth_under(graph, perm);

  locals_.resize(n);
  for (std::size_t i = 0; i < n; ++i) locals_[i] = raw_locals[perm[i]];
  global_to_local_.assign(m.node_count(), -1);
  for (std::size_t i = 0; i < n; ++i)
    global_to_local_[locals_[i]] = static_cast<std::ptrdiff_t>(i);

  comp_local_.resize(kComponentsPerTile);
  const auto comps = m.floorplan().components_of_core(core);
  for (int k = 0; k < kComponentsPerTile; ++k)
    comp_local_[static_cast<std::size_t>(k)] = static_cast<std::size_t>(
        global_to_local_[m.die_node(comps[static_cast<std::size_t>(k)])]);

  // Build the banded local matrix and the boundary coupling list. The
  // diagonal of G0 already contains the boundary conductances, so the
  // conditioned system is (G_local) T_local = q + sum g_ib T_b.
  base_band_ = linalg::BandMatrix(n, bandwidth_, bandwidth_);
  tau_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gi = locals_[i];
    for (std::size_t k = g0.row_offsets()[gi]; k < g0.row_offsets()[gi + 1];
         ++k) {
      const std::size_t gj = g0.col_indices()[k];
      const double v = g0.values()[k];
      const std::ptrdiff_t j = global_to_local_[gj];
      if (gj == gi) {
        base_band_.at(i, i) = v;
      } else if (j >= 0) {
        base_band_.at(i, static_cast<std::size_t>(j)) = v;
      } else {
        // Off-diagonal coupling to a boundary node: -g entry.
        boundary_.push_back({i, gj, -v});
      }
    }
    tau_[i] = model_->node_tau()[gi];
  }
}

std::size_t CoreEstimator::local_of_component(int local_component) const {
  TECFAN_REQUIRE(local_component >= 0 &&
                     local_component < kComponentsPerTile,
                 "component index out of range");
  return comp_local_[static_cast<std::size_t>(local_component)];
}

linalg::Vector CoreEstimator::steady(
    std::span<const double> comp_power, std::span<const std::uint8_t> tec_on,
    std::span<const double> boundary_temps) const {
  TECFAN_REQUIRE(comp_power.size() ==
                     static_cast<std::size_t>(kComponentsPerTile),
                 "need 18 component powers");
  TECFAN_REQUIRE(tec_on.size() == dev_global_.size(),
                 "need one state per device");
  TECFAN_REQUIRE(boundary_temps.size() == model_->node_count(),
                 "boundary temps must be the full node vector");

  linalg::BandMatrix a = base_band_;
  linalg::Vector q(locals_.size(), 0.0);

  for (int k = 0; k < kComponentsPerTile; ++k)
    q[comp_local_[static_cast<std::size_t>(k)]] =
        comp_power[static_cast<std::size_t>(k)];

  const double pump = model_->tec().pumping_w_per_k();
  const double joule = model_->tec().joule_per_face_w();
  for (std::size_t d = 0; d < dev_global_.size(); ++d) {
    if (!tec_on[d]) continue;
    const auto cold = static_cast<std::size_t>(
        global_to_local_[model_->tec_cold_node(dev_global_[d])]);
    const auto hot = static_cast<std::size_t>(
        global_to_local_[model_->tec_hot_node(dev_global_[d])]);
    a.at(cold, cold) += pump;
    a.at(hot, hot) -= pump;
    q[cold] += joule;
    q[hot] += joule;
  }

  for (const Boundary& b : boundary_)
    q[b.local] += b.g * boundary_temps[b.global];

  return linalg::BandLu(std::move(a)).solve(q);
}

linalg::Vector CoreEstimator::exponential(std::span<const double> steady_local,
                                          std::span<const double> prev_local,
                                          double dt_s) const {
  TECFAN_REQUIRE(steady_local.size() == locals_.size() &&
                     prev_local.size() == locals_.size(),
                 "local vector size mismatch");
  linalg::Vector out(locals_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double beta = std::exp(-dt_s / tau_[i]);
    out[i] = (1.0 - beta) * steady_local[i] + beta * prev_local[i];
  }
  return out;
}

}  // namespace tecfan::thermal
