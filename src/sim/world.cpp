#include "sim/world.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/assert.h"
#include "mobility/idm_highway.h"
#include "mobility/manhattan_grid.h"
#include "mobility/trace.h"
#include "sim/node_stack.h"
#include "sim/scenario.h"

namespace vanet::sim {

namespace {

void validate_trace_against_map(const ScenarioConfig& cfg,
                                const map::RoadGraph& graph,
                                const map::SegmentIndex& index) {
  const double tol = cfg.map.trace_tolerance_m;
  if (tol <= 0.0) return;
  for (const auto& [id, samples] : cfg.trace.samples()) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const mobility::TraceSample& s = samples[i];
      const core::Vec2 pos{s.x, s.y};
      const int seg = index.nearest_segment(pos);
      const auto [a, b] = graph.segment_ends(seg);
      const double d = core::distance_to_segment(pos, graph.intersection_pos(a),
                                                 graph.intersection_pos(b));
      if (d <= tol) continue;
      // Same line-numbered style as the CSV importers, so a replayed real
      // trace and an imported map cannot silently disagree.
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "trace<->map: vehicle %u sample %zu%s%s (t=%gs) at "
                    "(%.1f, %.1f) is %.1f m from the nearest road segment "
                    "(map.trace_tolerance_m=%g; nearest segment %d)",
                    static_cast<unsigned>(id), i,
                    s.line > 0 ? ", trace csv line " : "",
                    s.line > 0 ? std::to_string(s.line).c_str() : "", s.t,
                    s.x, s.y, d, tol, seg);
      throw std::invalid_argument(buf);
    }
  }
}

std::unique_ptr<mobility::MobilityModel> make_mobility_model(
    const ScenarioConfig& cfg, const std::shared_ptr<map::RoadGraph>& graph,
    core::RngManager& rngs, mobility::GraphMobilityModel** graph_model_out) {
  if (cfg.mobility == MobilityKind::kHighway) {
    auto highway = std::make_unique<mobility::IdmHighwayModel>(cfg.highway);
    highway->populate(cfg.vehicles_per_direction,
                      rngs.stream("mobility-init"));
    return highway;
  }
  if (cfg.mobility == MobilityKind::kManhattan) {
    auto grid = std::make_unique<mobility::ManhattanGridModel>(cfg.manhattan);
    grid->populate(cfg.vehicles, rngs.stream("mobility-init"));
    return grid;
  }
  if (cfg.mobility == MobilityKind::kGraph) {
    auto graph_model =
        std::make_unique<mobility::GraphMobilityModel>(graph, cfg.graph);
    graph_model->populate(cfg.vehicles, rngs.stream("mobility-init"));
    *graph_model_out = graph_model.get();
    return graph_model;
  }
  auto playback = std::make_unique<mobility::TracePlaybackModel>(cfg.trace);
  // Node ids mirror vehicle ids, so the trace must use dense ids.
  const auto& vs = playback->vehicles();
  for (std::size_t i = 0; i < vs.size(); ++i) {
    VANET_ASSERT_MSG(vs[i].id == i, "trace vehicle ids must be dense 0..N-1");
  }
  return playback;
}

}  // namespace

World::World(const ScenarioConfig& cfg, core::Simulator& sim,
             core::RngManager& rngs)
    : cfg_{cfg},
      sim_{sim},
      road_graph_{build_road_graph(cfg)},
      segment_index_{*road_graph_},
      snapshot_{segment_index_} {
  if (cfg.mobility == MobilityKind::kTrace &&
      cfg.map.source == MapSource::kFile) {
    validate_trace_against_map(cfg, *road_graph_, segment_index_);
  }
  std::unique_ptr<mobility::MobilityModel> model =
      make_mobility_model(cfg, road_graph_, rngs, &graph_model_);
  vehicle_count_ = model->vehicles().size();
  VANET_ASSERT_MSG(vehicle_count_ >= 2, "scenario needs at least two vehicles");
  mobility_ = std::make_unique<mobility::MobilityManager>(
      sim, std::move(model), rngs.stream("mobility"),
      core::SimTime::seconds(cfg.mobility_tick_s));

  // Ferry designation: spread bus ids evenly over the vehicle id space.
  ferries_ = std::make_shared<routing::FerrySet>();
  if (cfg.bus_count > 0) {
    const std::size_t stride =
        std::max<std::size_t>(1, vehicle_count_ / cfg.bus_count);
    for (std::size_t k = 0; k < static_cast<std::size_t>(cfg.bus_count) &&
                            k * stride < vehicle_count_;
         ++k) {
      ferries_->insert(static_cast<net::NodeId>(k * stride));
    }
  }
  density_ =
      std::make_shared<map::SegmentDensityOracle>(road_graph_->segment_count());
  // Incremental refresh: graph mobility proves per-vehicle segments at tick
  // time, so the 1 Hz refresh only queries the SegmentIndex for vehicles the
  // model cannot vouch for (near intersections, or on segments whose
  // interiors are geometrically ambiguous — none on lattices).
  incremental_density_ =
      cfg.density_incremental && cfg.mobility == MobilityKind::kGraph;
  if (incremental_density_) {
    segment_ambiguous_ = map::ambiguous_interior_segments(*road_graph_);
    // Graph mobility proves driven segments (MobilityModel::reported_segment)
    // for positions it produced this tick; declining on any position mismatch
    // keeps the prover safe against non-current (stamped or extrapolated)
    // positions a protocol might feed the snapshot.
    snapshot_.set_prover([this](std::uint32_t id, core::Vec2 pos) -> int {
      const std::size_t i = mobility_->model_index(id);
      if (i == mobility::MobilityManager::npos) return -1;
      if (mobility_->vehicles()[i].pos != pos) return -1;
      int seg = mobility_->model().reported_segment(i);
      if (seg >= 0 && segment_ambiguous_[static_cast<std::size_t>(seg)]) {
        seg = -1;
      }
      return seg;
    });
  }
  refresh_density();
}

void World::refresh_density() {
  // Per-segment vehicle counts, refreshed once per second (ground-truth
  // stand-in for CAR's statistics dissemination; see map/road_graph.h).
  std::vector<double> counts(road_graph_->segment_count(), 0.0);
  const auto& vehicles = mobility_->vehicles();
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    int seg;
    if (incremental_density_) {
      // Through the snapshot: its prover is exactly the proven
      // reported_segment + ambiguity-mask logic, its fallback the same index
      // query — digest-identical — and routing the refresh through it warms
      // the per-node entries the route-geometry protocols read.
      seg = snapshot_.segment_of(vehicles[i].id, vehicles[i].pos);
    } else {
      // Full rescan (`density.incremental=false`): direct index queries,
      // deliberately bypassing every cache so the equivalence test compares
      // against an independent path. The index returns exactly
      // RoadGraph::segment_of_position(pos) — see map/segment_index.h —
      // without the O(segments) scan per vehicle.
      seg = segment_index_.nearest_segment(vehicles[i].pos);
    }
    counts[static_cast<std::size_t>(seg)] += 1.0;
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    density_->set_count(static_cast<int>(s), counts[s]);
  }
  sim_.schedule(core::SimTime::seconds(1.0), [this] { refresh_density(); });
}

void World::start_reachability(NodeStack& stack) {
  if (!cfg_.sample_reachability) return;
  sampled_ = &stack;
  // Sample over the traffic window only (flows exist after start()).
  sim_.schedule(core::SimTime::seconds(cfg_.traffic.start_s),
                [this] { sample_reachability(); });
}

void World::sample_reachability() {
  const auto& flows = sampled_->traffic().flows();
  if (!flows.empty()) {
    // One component labeling answers every flow at this instant; running a
    // BFS per flow re-derived the same adjacency per pair.
    const net::Network& net = sampled_->network();
    const std::vector<std::uint32_t> labels =
        net.reachability_components(net.nominal_range());
    for (const auto& flow : flows) {
      ++total_samples_;
      if (labels[flow.src] == labels[flow.dst]) ++reachable_samples_;
    }
  }
  sim_.schedule(core::SimTime::seconds(1.0), [this] { sample_reachability(); });
}

}  // namespace vanet::sim
