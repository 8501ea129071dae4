// Everything one run holds that is not per node: road graph and
// SegmentIndex, MobilityManager, ferry set, the density oracle with its 1 Hz
// refresh and the segment snapshot it warms, and the 1 Hz reachability
// sampler. It schedules on the Simulator it is given (the serial loop, or
// the sharded coordinator), which alone writes it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "map/road_graph.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "mobility/graph_mobility.h"
#include "mobility/mobility_manager.h"
#include "routing/infrastructure/bus.h"

namespace vanet::sim {

class NodeStack;
struct ScenarioConfig;

class World {
 public:
  /// Builds map and mobility ("mobility-init" and "mobility" streams of
  /// `rngs`), runs the first density refresh and schedules the next one on
  /// `sim`. Build the World before any NodeStack on `sim`: the refresh must
  /// take the first sequence number, ahead of anything a protocol's bind()
  /// schedules.
  World(const ScenarioConfig& cfg, core::Simulator& sim,
        core::RngManager& rngs);

  core::Simulator& simulator() { return sim_; }
  const std::shared_ptr<map::RoadGraph>& road_graph() const {
    return road_graph_;
  }
  const map::SegmentIndex& segment_index() const { return segment_index_; }
  mobility::MobilityManager& mobility() { return *mobility_; }
  /// Null unless the scenario uses graph mobility.
  mobility::GraphMobilityModel* graph_model() const { return graph_model_; }
  std::size_t vehicle_count() const { return vehicle_count_; }
  const std::shared_ptr<map::SegmentDensityOracle>& density() const {
    return density_;
  }
  const std::shared_ptr<routing::FerrySet>& ferries() const { return ferries_; }
  map::SegmentSnapshot& segment_snapshot() { return snapshot_; }

  /// Starts the 1 Hz reachability oracle at the traffic start (a no-op with
  /// `sample_reachability=false`): connectivity over `stack`'s Network for
  /// every flow of its traffic source. Call after the stack has started.
  void start_reachability(NodeStack& stack);
  std::uint64_t reachable_samples() const { return reachable_samples_; }
  std::uint64_t total_samples() const { return total_samples_; }

 private:
  void refresh_density();
  void sample_reachability();

  const ScenarioConfig& cfg_;
  core::Simulator& sim_;
  std::shared_ptr<map::RoadGraph> road_graph_;
  map::SegmentIndex segment_index_;
  map::SegmentSnapshot snapshot_;
  std::unique_ptr<mobility::MobilityManager> mobility_;
  /// Borrowed view of the mobility model when it is graph-based (the
  /// manager owns it).
  mobility::GraphMobilityModel* graph_model_ = nullptr;
  std::size_t vehicle_count_ = 0;
  std::shared_ptr<routing::FerrySet> ferries_;
  std::shared_ptr<map::SegmentDensityOracle> density_;
  /// Segments whose interiors cannot prove nearest-segment identity; only
  /// populated when the incremental density path is active (graph mobility).
  std::vector<bool> segment_ambiguous_;
  bool incremental_density_ = false;

  NodeStack* sampled_ = nullptr;
  std::uint64_t reachable_samples_ = 0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace vanet::sim
