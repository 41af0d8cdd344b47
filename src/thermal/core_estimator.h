// Per-core reduced thermal estimator — the Sec. III-E hardware path.
//
// "Since the inter-core thermal impact is limited in tile-structured
//  many-core architectures, we only evaluate the temperature of one core
//  each time."
//
// The estimator extracts one tile's sub-network from the full chip model
// (18 die components + 9 TEC cold faces + 9 hot faces = 36 nodes), holds
// every boundary node (neighbouring tiles' die components, the tile's
// spreader node) at its last observed/estimated temperature, and solves the
// conditioned steady-state system. Nodes are re-ordered with reverse
// Cuthill–McKee so the local conductance matrix is a genuine band matrix —
// the property the paper's systolic-array hardware estimate rests on — and
// factored with the banded LU.
//
// By construction the estimate is *exact* when the boundary temperatures
// equal the true global solution; in operation the boundary lag is one more
// (small) source of controller error.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "linalg/banded.h"
#include "thermal/network.h"

namespace tecfan::thermal {

class CoreEstimator {
 public:
  CoreEstimator(std::shared_ptr<const ChipThermalModel> model, int core);

  int core() const { return core_; }
  std::size_t local_node_count() const { return locals_.size(); }

  /// Half bandwidth of the RCM-ordered local conductance matrix (the K-ish
  /// quantity behind the paper's M x K multiplier count).
  std::size_t bandwidth() const { return bandwidth_; }

  /// Global node ids of the local nodes, in local order.
  const std::vector<std::size_t>& local_to_global() const { return locals_; }

  /// Local index of this core's component c (0..17), in the local vector
  /// returned by steady().
  std::size_t local_of_component(int local_component) const;

  /// Conditioned steady solve. comp_power: power of this core's 18
  /// components (local component order); tec_on: this core's 9 devices;
  /// boundary_temps: the FULL global node temperature vector, of which only
  /// boundary entries are read.
  linalg::Vector steady(std::span<const double> comp_power,
                        std::span<const std::uint8_t> tec_on,
                        std::span<const double> boundary_temps) const;

  /// Eq. (5) exponential blend for the local nodes.
  linalg::Vector exponential(std::span<const double> steady_local,
                             std::span<const double> prev_local,
                             double dt_s) const;

 private:
  std::shared_ptr<const ChipThermalModel> model_;
  int core_;
  std::vector<std::size_t> locals_;           // local -> global
  std::vector<std::ptrdiff_t> global_to_local_;  // -1 when not local
  std::vector<std::size_t> comp_local_;       // component (0..17) -> local
  std::vector<std::size_t> dev_global_;       // device (0..8) -> global TEC id
  linalg::BandMatrix base_band_;              // RCM-ordered local G
  std::size_t bandwidth_ = 0;
  // Boundary couplings: (local index, global boundary node, conductance).
  struct Boundary {
    std::size_t local;
    std::size_t global;
    double g;
  };
  std::vector<Boundary> boundary_;
  std::vector<double> tau_;  // per local node
};

}  // namespace tecfan::thermal
