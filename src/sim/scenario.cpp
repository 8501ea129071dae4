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
  out += "protocol=" + r.protocol + "\n";
  append_field(out, "pdr", r.pdr);
  append_field(out, "delay_ms_mean", r.delay_ms_mean);
  append_field(out, "delay_ms_p95_hint", r.delay_ms_p95_hint);
  append_field(out, "hops_mean", r.hops_mean);
  append_field(out, "originated", r.originated);
  append_field(out, "delivered", r.delivered);
  append_field(out, "control_frames", r.control_frames);
  append_field(out, "hello_frames", r.hello_frames);
  append_field(out, "data_frames", r.data_frames);
  append_field(out, "backbone_frames", r.backbone_frames);
  append_field(out, "receptions_ok", r.receptions_ok);
  append_field(out, "control_per_delivered", r.control_per_delivered);
  append_field(out, "collision_fraction", r.collision_fraction);
  append_field(out, "reachable_fraction", r.reachable_fraction);
  append_field(out, "route_breaks", r.route_breaks);
  append_field(out, "discoveries", r.discoveries);
  append_field(out, "preemptive_rebuilds", r.preemptive_rebuilds);
  append_field(out, "predicted_lifetime_mean_s", r.predicted_lifetime_mean_s);
  append_field(out, "observed_lifetime_mean_s", r.observed_lifetime_mean_s);
  // Fault fields only exist in the canonical form of faulted runs: a report
  // with fault_enabled=false serializes byte-identically to a pre-fault
  // build, which is what keeps the historical golden digests valid.
  if (r.fault_enabled) {
    append_field(out, "faulted_originated", r.faulted_originated);
    append_field(out, "faulted_delivered", r.faulted_delivered);
    append_field(out, "pdr_under_fault", r.pdr_under_fault);
    append_field(out, "node_outages", r.node_outages);
    append_field(out, "node_restarts", r.node_restarts);
    append_field(out, "segment_blocks", r.segment_blocks);
    append_field(out, "frames_dropped_down", r.frames_dropped_down);
    append_field(out, "recovery_latency_mean_s", r.recovery_latency_mean_s);
  }
  // Link-quality fields follow the same rule: only serialized when the etx
  // protocol or a flood.suppression mode ran, so every pre-existing digest
  // stays byte-identical.
  if (r.linkquality_enabled) {
    append_field(out, "etx_link_error_mean", r.etx_link_error_mean);
    append_field(out, "etx_link_samples", r.etx_link_samples);
    append_field(out, "suppressed_rebroadcasts", r.suppressed_rebroadcasts);
  }
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
  if (sharded) {
    sharded_engine_ = std::make_unique<sharded::ShardedScenario>(cfg_, *world_);
    return;
  }
  NodeStack::Options opts;
  opts.rsus = rsu_positions(cfg_, *world_->road_graph());
  opts.snapshot = &world_->segment_snapshot();
  stack_ = std::make_unique<NodeStack>(cfg_, *world_, sim_, std::move(opts));
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
  if (sharded_engine_) {
    sharded_engine_->run();
    return;
  }
  world_->mobility().start();
  stack_->start();
  if (fault_plan_) fault_plan_->start();
  world_->start_reachability(*stack_);
  sim_.run_until(core::SimTime::seconds(cfg_.duration_s));
}

ScenarioReport assemble_report(const ScenarioConfig& cfg,
                               const Metrics& metrics,
                               const net::NetCounters& c,
                               const routing::ProtocolEvents& events,
                               std::uint64_t reachable_samples,
                               std::uint64_t total_samples) {
  ScenarioReport r;
  r.protocol = cfg.protocol;
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
  r.reachable_fraction =
      total_samples > 0 ? static_cast<double>(reachable_samples) /
                              static_cast<double>(total_samples)
                        : 0.0;
  r.route_breaks = events.route_breaks;
  r.discoveries = events.discoveries_started;
  r.preemptive_rebuilds = events.preemptive_rebuilds;
  r.predicted_lifetime_mean_s = events.predicted_route_lifetime.mean();
  r.observed_lifetime_mean_s = events.observed_route_lifetime.mean();
  if (cfg.protocol == "etx" ||
      cfg.flood_suppression != routing::FloodSuppression::kNone) {
    r.linkquality_enabled = true;
    r.etx_link_error_mean = events.etx_link_abs_error.mean();
    r.etx_link_samples = events.etx_link_abs_error.count();
    r.suppressed_rebroadcasts = events.suppressed_rebroadcasts;
  }
  return r;
}

ScenarioReport Scenario::report() const {
  if (sharded_engine_) return sharded_engine_->report();
  const Metrics& metrics = stack_->metrics();
  const net::Network& net = stack_->network();
  ScenarioReport r =
      assemble_report(cfg_, metrics, net.counters(), stack_->events(),
                      world_->reachable_samples(), world_->total_samples());
  if (fault_plan_) {
    r.fault_enabled = true;
    // Classify both sides of the delivery ledger by *send* time against the
    // completed fault timeline (see Metrics::set_fault_tracking).
    for (const core::SimTime t : metrics.origination_times()) {
      if (fault_plan_->fault_active_at(t)) ++r.faulted_originated;
    }
    for (const core::SimTime t : metrics.first_delivery_sent_times()) {
      if (fault_plan_->fault_active_at(t)) ++r.faulted_delivered;
    }
    r.pdr_under_fault =
        r.faulted_originated > 0
            ? static_cast<double>(r.faulted_delivered) /
                  static_cast<double>(r.faulted_originated)
            : 0.0;
    const FaultCounters& fc = fault_plan_->counters();
    r.node_outages = fc.node_outages;
    r.node_restarts = fc.node_restarts;
    r.segment_blocks = fc.segment_blocks;
    r.frames_dropped_down = net.counters().frames_dropped_down;
    r.recovery_latency_mean_s = net.recovery_latency().mean();
  }
  return r;
}

NodeStack& Scenario::serial_stack() {
  VANET_ASSERT_MSG(!sharded_engine_, "serial path only");
  return *stack_;
}

const CbrTraffic& Scenario::traffic() const {
  return sharded_engine_ ? sharded_engine_->stack(0).traffic()
                         : stack_->traffic();
}

int Scenario::shard_count() const {
  return sharded_engine_ ? sharded_engine_->shards() : 1;
}

int Scenario::shard_thread_count() const {
  return sharded_engine_ ? sharded_engine_->threads() : 1;
}

std::uint64_t Scenario::events_dispatched() const {
  return sharded_engine_ ? sharded_engine_->events_dispatched()
                         : sim_.events_dispatched();
}

core::EventQueue::AllocStats Scenario::scheduler_stats() const {
  return sharded_engine_ ? sharded_engine_->scheduler_stats()
                         : sim_.scheduler_stats();
}

}  // namespace vanet::sim
