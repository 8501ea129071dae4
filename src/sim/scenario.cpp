#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/assert.h"
#include "map/builders.h"
#include "sim/sharded/sharded_scenario.h"

namespace vanet::sim {

namespace {

void append_field(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += name;
  out += '=';
  out += buf;
  out += '\n';
}

void append_field(std::string& out, const char* name, std::uint64_t v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

void append_field(std::string& out, const char* name, const std::string& v) {
  out += name;
  out += '=';
  out += v;
  out += '\n';
}

/// Roadside units placed evenly over the deployment area.
std::vector<core::Vec2> rsu_positions(const ScenarioConfig& cfg,
                                      const map::RoadGraph& graph) {
  std::vector<core::Vec2> out;
  if (cfg.rsu_count <= 0) return out;
  if (cfg.mobility == MobilityKind::kHighway) {
    const double spacing = cfg.highway.length / cfg.rsu_count;
    for (int k = 0; k < cfg.rsu_count; ++k) {
      // On the median between the carriageways.
      out.push_back({(k + 0.5) * spacing, -cfg.highway.median_gap / 2.0});
    }
    return out;
  }
  // Scenarios with a real map (graph mobility, or any imported file map —
  // including trace playback over one) cover the actual map extent, which
  // need not start at the origin; the synthetic urban kinds keep the
  // configured lattice dimensions.
  double x0 = 0.0, y0 = 0.0;
  double w = (cfg.manhattan.streets_x - 1) * cfg.manhattan.block;
  double h = (cfg.manhattan.streets_y - 1) * cfg.manhattan.block;
  if (cfg.mobility == MobilityKind::kGraph ||
      cfg.map.source == MapSource::kFile) {
    x0 = graph.bbox_min().x;
    y0 = graph.bbox_min().y;
    w = graph.bbox_max().x - x0;
    h = graph.bbox_max().y - y0;
  }
  const int per_side =
      std::max(1, static_cast<int>(std::lround(std::sqrt(cfg.rsu_count))));
  const auto n = static_cast<std::size_t>(cfg.rsu_count);
  for (int i = 0; i < per_side && out.size() < n; ++i) {
    for (int j = 0; j < per_side && out.size() < n; ++j) {
      const double x = per_side == 1 ? w / 2.0 : i * w / (per_side - 1);
      const double y = per_side == 1 ? h / 2.0 : j * h / (per_side - 1);
      out.push_back({x0 + x, y0 + y});
    }
  }
  return out;
}

}  // namespace

std::string canonical_report_string(const ScenarioReport& r) {
  std::string out;
  r.fields([&out](const char* name, const auto& v) {
    append_field(out, name, v);
  });
  return out;
}

std::string report_digest(const ScenarioReport& r) {
  const std::string canonical = canonical_report_string(r);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string{buf};
}

int resolve_shard_count(const ScenarioConfig& cfg) {
  if (cfg.shards < 0) {
    throw std::invalid_argument("scenario.shards must be >= 0 (0 = auto)");
  }
  if (cfg.shards != 0) return cfg.shards;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

std::shared_ptr<map::RoadGraph> build_road_graph(const ScenarioConfig& cfg) {
  if (cfg.map.source == MapSource::kFile) {
    if (cfg.mobility != MobilityKind::kGraph &&
        cfg.mobility != MobilityKind::kTrace) {
      throw std::invalid_argument(
          "map.source=file requires graph or trace mobility — the highway / "
          "manhattan models synthesize their own geometry and would not "
          "drive on the imported map");
    }
    if (cfg.map.file.empty()) {
      throw std::invalid_argument("map.source=file requires map.file=PATH");
    }
    return std::make_shared<map::RoadGraph>(
        map::load_edge_list_csv_file(cfg.map.file));
  }
  if (cfg.mobility == MobilityKind::kManhattan ||
      cfg.mobility == MobilityKind::kGraph) {
    // Urban lattice; kGraph shares the Manhattan dimensions so the two urban
    // models are directly comparable on the same topology.
    return std::make_shared<map::RoadGraph>(
        cfg.manhattan.streets_x, cfg.manhattan.streets_y, cfg.manhattan.block);
  }
  // Highway (and highway-like trace) scenarios: a 1-D line of car_cell_m
  // cells, the granularity CAR scores connectivity over.
  const int nx = std::max(
      2,
      static_cast<int>(std::lround(cfg.highway.length / cfg.car_cell_m)) + 1);
  return std::make_shared<map::RoadGraph>(nx, 1,
                                          cfg.highway.length / (nx - 1));
}

Scenario::Scenario(ScenarioConfig cfg) : cfg_{std::move(cfg)}, rngs_{cfg_.seed} {
  const bool sharded = resolve_shard_count(cfg_) > 1;
  if (sharded) sharded::ShardedScenario::validate_config(cfg_);
  world_ = std::make_unique<World>(cfg_, sim_, rngs_);
  loops_.push_back(&sim_);
  if (sharded) {
    sharded_engine_ = std::make_unique<sharded::ShardedScenario>(cfg_, *world_);
    shard_threads_ = sharded_engine_->threads();
    for (int s = 0; s < sharded_engine_->shards(); ++s) {
      NodeStack& stack = sharded_engine_->stack(s);
      stacks_.push_back(&stack);
      loops_.push_back(&stack.simulator());
    }
    return;
  }
  NodeStack::Options opts;
  opts.rsus = rsu_positions(cfg_, *world_->road_graph());
  opts.snapshot = &world_->segment_snapshot();
  stack_ = std::make_unique<NodeStack>(cfg_, *world_, sim_, std::move(opts));
  stacks_.push_back(stack_.get());
  // Disabled means *nothing* happens: the "fault" stream is never derived,
  // no event is scheduled and metrics keep their lean path — provably
  // bit-identical to a build without the fault subsystem.
  if (cfg_.fault.enabled) {
    fault_plan_ = std::make_unique<FaultPlan>(
        sim_, stack_->network(), world_->graph_model(), rngs_.stream("fault"),
        cfg_.fault, cfg_.duration_s);
    stack_->metrics().set_fault_tracking(true);
  }
}

Scenario::~Scenario() = default;

void Scenario::run() {
  if (ran_) return;
  ran_ = true;
  world_->mobility().start();
  for (NodeStack* stack : stacks_) stack->start();
  if (fault_plan_) fault_plan_->start();
  // Every stack tracks every node's position and draws the same flow list,
  // so sampling through the first reproduces the serial oracle.
  world_->start_reachability(*stacks_.front());
  if (sharded_engine_) {
    sharded_engine_->run();
  } else {
    sim_.run_until(core::SimTime::seconds(cfg_.duration_s));
  }
}

ScenarioReport Scenario::report() const {
  Metrics metrics;
  net::NetCounters c{};
  routing::ProtocolEvents events;
  analysis::RunningStats recovery_latency;
  // Stack order is fixed, so merged RunningStats (order-sensitive in
  // floating point) are as deterministic as everything else; merging one
  // stack into empty collectors copies it exactly.
  for (NodeStack* stack : stacks_) {
    metrics.merge_from(stack->metrics());
    c += stack->network().counters();
    events.merge_from(stack->events());
    recovery_latency.merge(stack->network().recovery_latency());
  }

  ScenarioReport r;
  r.protocol = cfg_.protocol;
  r.pdr = metrics.pdr();
  r.delay_ms_mean = metrics.delay_ms().mean();
  r.delay_ms_p95_hint =
      metrics.delay_ms().mean() + 2.0 * metrics.delay_ms().stddev();
  r.hops_mean = metrics.hops().mean();
  r.originated = metrics.originated();
  r.delivered = metrics.delivered();
  r.control_frames = c.control_frames_sent;
  r.hello_frames = c.hello_frames_sent;
  r.data_frames = c.data_frames_sent;
  r.backbone_frames = c.backbone_frames;
  r.receptions_ok = c.receptions_ok;
  r.control_per_delivered =
      r.delivered > 0 ? static_cast<double>(r.control_frames + r.hello_frames) /
                            static_cast<double>(r.delivered)
                      : static_cast<double>(r.control_frames + r.hello_frames);
  const std::uint64_t attempted =
      c.receptions_ok + c.receptions_collided + c.receptions_faded;
  r.collision_fraction =
      attempted > 0
          ? static_cast<double>(c.receptions_collided) /
                static_cast<double>(attempted)
          : 0.0;
  const std::uint64_t samples = world_->total_samples();
  r.reachable_fraction =
      samples > 0 ? static_cast<double>(world_->reachable_samples()) /
                        static_cast<double>(samples)
                  : 0.0;
  r.route_breaks = events.route_breaks;
  r.discoveries = events.discoveries_started;
  r.preemptive_rebuilds = events.preemptive_rebuilds;
  r.predicted_lifetime_mean_s = events.predicted_route_lifetime.mean();
  r.observed_lifetime_mean_s = events.observed_route_lifetime.mean();

  if (fault_plan_) {
    FaultSection& f = r.fault.emplace();
    // Classify both sides of the delivery ledger by *send* time against the
    // completed fault timeline (see Metrics::set_fault_tracking).
    for (const core::SimTime t : metrics.origination_times()) {
      if (fault_plan_->fault_active_at(t)) ++f.faulted_originated;
    }
    for (const core::SimTime t : metrics.first_delivery_sent_times()) {
      if (fault_plan_->fault_active_at(t)) ++f.faulted_delivered;
    }
    f.pdr_under_fault =
        f.faulted_originated > 0
            ? static_cast<double>(f.faulted_delivered) /
                  static_cast<double>(f.faulted_originated)
            : 0.0;
    const FaultCounters& fc = fault_plan_->counters();
    f.node_outages = fc.node_outages;
    f.node_restarts = fc.node_restarts;
    f.segment_blocks = fc.segment_blocks;
    f.frames_dropped_down = c.frames_dropped_down;
    f.recovery_latency_mean_s = recovery_latency.mean();
  }
  if (cfg_.protocol == "etx" ||
      cfg_.flood_suppression != routing::FloodSuppression::kNone) {
    r.linkquality = LinkQualitySection{events.etx_link_abs_error.mean(),
                                       events.etx_link_abs_error.count(),
                                       events.suppressed_rebroadcasts};
  }
  return r;
}

NodeStack& Scenario::serial_stack() {
  VANET_ASSERT_MSG(!sharded_engine_, "serial path only");
  return *stack_;
}

const CbrTraffic& Scenario::traffic() const { return stacks_.front()->traffic(); }

std::uint64_t Scenario::events_dispatched() const {
  std::uint64_t total = 0;
  for (const core::Simulator* loop : loops_) total += loop->events_dispatched();
  return total;
}

core::EventQueue::AllocStats Scenario::scheduler_stats() const {
  core::EventQueue::AllocStats total;
  for (const core::Simulator* loop : loops_) {
    total.merge_from(loop->scheduler_stats());
  }
  return total;
}

}  // namespace vanet::sim
