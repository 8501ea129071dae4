// Scenario assembly: mobility + radio + protocol + traffic in one object.
//
// A Scenario owns the whole simulation stack for one run. Configurations are
// plain data so benches can sweep them; the same seed always reproduces the
// same run bit-for-bit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/lifetime_memo.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "mobility/graph_mobility.h"
#include "mobility/idm_highway.h"
#include "mobility/manhattan_grid.h"
#include "mobility/mobility_manager.h"
#include "mobility/trace.h"
#include "net/hello.h"
#include "net/network.h"
#include "routing/registry.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/node_stack.h"
#include "sim/traffic.h"
#include "sim/world.h"

namespace vanet::sim {

enum class MobilityKind { kHighway, kManhattan, kTrace, kGraph };

/// Radio model (`phy.model` key): deterministic unit disk, log-normal
/// shadowing (slow fading), or Nakagami-m (fast fading) — see net/fading.h.
enum class PhyModel { kUnitDisk, kShadowing, kNakagami };

/// Where the scenario's road topology (map::RoadGraph) comes from.
enum class MapSource {
  kGrid,  ///< generated: Manhattan lattice (or highway line) from the config
  kFile,  ///< imported: edge-list CSV via map/builders.h
};

struct MapSpec {
  MapSource source = MapSource::kGrid;
  /// Edge-list CSV path, loaded at scenario construction (source=kFile only).
  /// A file map requires kGraph or kTrace mobility — the synthetic highway /
  /// Manhattan models generate their own geometry and would diverge from it.
  std::string file;
  /// Trace↔map coupling guard: with trace mobility over a file map, every
  /// trace sample must lie within this distance of some road segment, or the
  /// scenario throws naming the offending vehicle/sample (and CSV line when
  /// the trace was loaded from one). <= 0 disables the check. Ignores
  /// generated maps — those are built to the mobility config, not vice versa.
  double trace_tolerance_m = 25.0;
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  double duration_s = 60.0;
  double mobility_tick_s = 0.1;

  /// Sharded engine (`scenario.shards`, src/sim/sharded/): partition the
  /// road graph into this many regions, each with its own event loop and
  /// worker thread. 1 (default) is the serial path — bit-identical to every
  /// historical digest. 0 = auto (hardware threads, capped at 8). Values
  /// > 1 require phy=unitdisk, no RSUs and no fault plan (the cross-shard
  /// handoff contract; see docs/ARCHITECTURE.md "Sharded engine").
  int shards = 1;
  /// Worker threads driving the shards (`scenario.shard_threads`): 0 = one
  /// per shard; 1 = the serial reference execution of the same sharded
  /// model. Any thread count produces bit-identical results by construction
  /// (the digest-equivalence tests pin threads=1 against threads=K).
  int shard_threads = 0;
  /// Conservative lookahead window in milliseconds
  /// (`scenario.shard_window_ms`): shards run [T, T+W) independently and
  /// exchange cross-cut receptions at window barriers, so a cross-shard
  /// frame resolves at most W late. Must stay well under the MAC's 50 ms
  /// channel-memory horizon; values outside (0, 20] are rejected.
  double shard_window_ms = 1.0;

  MapSpec map;                      ///< road topology source (see src/map/)
  MobilityKind mobility = MobilityKind::kHighway;
  mobility::HighwayConfig highway;
  int vehicles_per_direction = 40;  ///< highway population (per direction)
  mobility::ManhattanConfig manhattan;
  int vehicles = 80;                ///< Manhattan / graph-mobility population
  /// kGraph: trip-based driving on the shared road graph (graph_mobility.h).
  mobility::GraphMobilityConfig graph;
  /// kTrace: played-back mobility (SUMO-like CSV; see mobility/trace.h).
  /// Vehicle ids must be dense 0..N-1 — renumber on conversion if needed.
  mobility::Trace trace;

  double comm_range_m = 250.0;      ///< unit-disk range
  /// Lossy-PHY selector. The legacy `shadowing` bool key reads/writes the
  /// kUnitDisk/kShadowing subset of this for config compatibility.
  PhyModel phy = PhyModel::kUnitDisk;
  int nakagami_m = 3;               ///< Nakagami shape (phy.model=nakagami)
  analysis::LogNormalParams signal; ///< shadowing/fading params (and REAR model)
  net::NetworkConfig net;

  /// Deterministic fault injection (`fault.*` keys; sim/fault_plan.h). With
  /// enabled=false nothing is constructed: no "fault" RNG stream, no events,
  /// runs bit-identical to a fault-free build.
  FaultConfig fault;

  int rsu_count = 0;                ///< evenly placed roadside units
  int bus_count = 0;                ///< vehicles designated as message ferries

  std::string protocol = "aodv";
  net::HelloConfig hello;
  int yan_tickets = 4;
  double car_cell_m = 500.0;        ///< road-graph granularity for CAR
  bool sample_reachability = true;  ///< 1 Hz src-dst connectivity oracle
  /// Density-oracle refresh strategy: vehicles whose mobility model proves
  /// the segment they drive on (MobilityModel::reported_segment) skip the
  /// per-vehicle SegmentIndex query at the 1 Hz refresh. Bit-identical to
  /// the full rescan by construction (see ambiguous_interior_segments);
  /// `density.incremental=false` forces the rescan, mainly for the
  /// equivalence test.
  bool density_incremental = true;
  /// Exact memo in front of the link-lifetime integration
  /// (analysis::LifetimeMemo): repeated (distance, relative-speed) inputs
  /// return the cached integral. Bit-identical to direct integration by
  /// construction; `lifetime.memo=false` disables it, mainly for the
  /// equivalence test.
  bool lifetime_memo = true;
  /// Opt-in interpolation table for the link-lifetime integral
  /// (`lifetime.interp=true`): bilinear between pre-integrated grid corners.
  /// RESULTS-CHANGING — reports differ from the exact integration, so this
  /// is off by default and pinned by its own golden digest row. Takes
  /// precedence over `lifetime.memo` when enabled.
  bool lifetime_interp = false;
  // Geometry backend of the road-geometry protocols (`zone.geometry` etc.,
  // values line|route — see routing::GeometryMode).
  routing::GeometryMode zone_geometry = routing::GeometryMode::kLine;
  routing::GeometryMode grid_geometry = routing::GeometryMode::kLine;
  routing::GeometryMode gvgrid_geometry = routing::GeometryMode::kLine;

  /// Link-quality estimator knobs (`etx.*` keys), shared by the `etx`
  /// protocol and ETX-ordered flood suppression (`flood.suppression=etx`,
  /// applied to the flooding + biswas protocols).
  routing::EtxConfig etx;
  routing::FloodSuppression flood_suppression = routing::FloodSuppression::kNone;

  TrafficConfig traffic;
};

/// Aggregated result of one run.
struct ScenarioReport {
  std::string protocol;
  double pdr = 0.0;
  double delay_ms_mean = 0.0;
  double delay_ms_p95_hint = 0.0;  ///< mean + 2 sd (normal approx)
  double hops_mean = 0.0;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t hello_frames = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t backbone_frames = 0;
  std::uint64_t receptions_ok = 0;     ///< successfully decoded frames (dup load)
  double control_per_delivered = 0.0;  ///< (control + hello) / delivered
  double collision_fraction = 0.0;     ///< collided / attempted receptions
  /// Fraction of (flow, second) samples whose endpoints were physically
  /// connectable through the range-disk graph (+ backbone) — the oracle
  /// upper bound on PDR. 0 when sampling is disabled.
  double reachable_fraction = 0.0;
  std::uint64_t route_breaks = 0;
  std::uint64_t discoveries = 0;
  std::uint64_t preemptive_rebuilds = 0;
  double predicted_lifetime_mean_s = 0.0;
  double observed_lifetime_mean_s = 0.0;

  /// Fault-injection results. Appended to the canonical string — and hence
  /// the digest — only when fault_enabled, so every pre-fault digest stays
  /// byte-identical with the fault layer compiled in and disabled.
  bool fault_enabled = false;
  std::uint64_t faulted_originated = 0;  ///< sent while a fault was active
  std::uint64_t faulted_delivered = 0;   ///< of those, delivered
  double pdr_under_fault = 0.0;
  std::uint64_t node_outages = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t segment_blocks = 0;
  std::uint64_t frames_dropped_down = 0;
  double recovery_latency_mean_s = 0.0;  ///< restart -> first decoded frame

  /// Link-quality family results. Appended to the canonical string — and
  /// hence the digest — only when linkquality_enabled (protocol=etx or a
  /// flood.suppression mode active), so pre-existing digests stay
  /// byte-identical.
  bool linkquality_enabled = false;
  double etx_link_error_mean = 0.0;     ///< mean |estimated - analytic| ETX
  std::uint64_t etx_link_samples = 0;   ///< links sampled for the error stat
  std::uint64_t suppressed_rebroadcasts = 0;
};

/// Canonical, lossless textual form of a report: every field on one
/// `name=value` line, doubles rendered as hexfloats so two reports compare
/// byte-identically iff they are bit-identical.
std::string canonical_report_string(const ScenarioReport& r);

/// 64-bit FNV-1a digest of canonical_report_string(), as 16 lowercase hex
/// chars. The determinism golden test and the throughput bench use this to
/// prove perf refactors leave the physics untouched.
std::string report_digest(const ScenarioReport& r);

namespace sharded {
class ShardedScenario;
}  // namespace sharded

/// Effective shard count for `cfg` on this machine: cfg.shards, with 0
/// (auto) resolving to the hardware thread count capped at 8. Always >= 1.
int resolve_shard_count(const ScenarioConfig& cfg);

/// The road topology `cfg` describes: the imported edge-list map, or the
/// generated lattice / highway line the synthetic mobility models drive on.
std::shared_ptr<map::RoadGraph> build_road_graph(const ScenarioConfig& cfg);
/// Assemble the protocol-independent report core from (possibly merged)
/// collectors. The serial report() adds the fault block on top; sharded runs
/// never have one (faults are excluded by the shard restrictions).
ScenarioReport assemble_report(const ScenarioConfig& cfg,
                               const Metrics& metrics,
                               const net::NetCounters& counters,
                               const routing::ProtocolEvents& events,
                               std::uint64_t reachable_samples,
                               std::uint64_t total_samples);

/// One run. Both engines assemble it the same way: a World (map, mobility,
/// density, reachability) on the scenario's Simulator, plus NodeStacks —
/// one over every node on that Simulator (serial engine), or one per shard
/// on the shards' own loops with the scenario's Simulator as coordinator
/// (sharded engine, effective shards > 1).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  /// Run the full configured duration (idempotent; runs once).
  void run();

  ScenarioReport report() const;

  /// True when this run executes on the sharded engine (effective shards
  /// > 1). The component accessors below that expose serial-only internals
  /// assert against it.
  bool is_sharded() const { return sharded_engine_ != nullptr; }
  /// Effective shard / worker-thread counts (1/1 on the serial path).
  int shard_count() const;
  int shard_thread_count() const;
  /// Events dispatched across every event loop of the run (the one serial
  /// loop, or coordinator + all shard loops), and the summed scheduler
  /// allocation telemetry. The timed runner reads these instead of poking
  /// simulator() so both paths report whole-run totals.
  std::uint64_t events_dispatched() const;
  core::EventQueue::AllocStats scheduler_stats() const;
  /// The sharded engine (null on the serial path); tests reach through this
  /// for partition/ownership introspection.
  sharded::ShardedScenario* sharded_engine() { return sharded_engine_.get(); }

  // Component access for tests and benches. simulator() is the coordinator
  // loop on sharded runs; network(), metrics(), events() and protocol_at()
  // are serial-path only.
  core::Simulator& simulator() { return sim_; }
  net::Network& network() { return serial_stack().network(); }
  mobility::MobilityManager& mobility() { return world_->mobility(); }
  /// Null for hello-less protocols and on sharded runs.
  net::HelloService* hello() { return stack_ ? stack_->hello() : nullptr; }
  Metrics& metrics() { return serial_stack().metrics(); }
  routing::ProtocolEvents& events() { return serial_stack().events(); }
  routing::RoutingProtocol& protocol_at(net::NodeId id) {
    return serial_stack().protocol_at(id);
  }
  /// The flows of the run: every shard draws the identical list, so sharded
  /// runs answer with shard 0's.
  const CbrTraffic& traffic() const;
  /// Null unless `fault.enabled=true`.
  FaultPlan* fault_plan() { return fault_plan_.get(); }
  /// Null unless the scenario uses graph mobility.
  mobility::GraphMobilityModel* graph_model() { return world_->graph_model(); }
  std::size_t vehicle_count() const { return world_->vehicle_count(); }
  /// The shared road topology (mobility + routing both reference it).
  const map::RoadGraph& road_graph() const { return *world_->road_graph(); }
  /// Scenario-owned caches (see docs/ARCHITECTURE.md, "Scenario-owned
  /// caches"). The memo is the serial stack's (null when `lifetime.memo=false`
  /// and `lifetime.interp=false`, and on sharded runs, whose shards keep
  /// their own); the snapshot is the World's, which the serial stack shares.
  const analysis::LifetimeMemo* lifetime_memo() const {
    return stack_ ? stack_->lifetime_memo() : nullptr;
  }
  const map::SegmentSnapshot* segment_snapshot() const {
    return &world_->segment_snapshot();
  }

 private:
  ScenarioConfig cfg_;
  core::Simulator sim_;
  core::RngManager rngs_;
  std::unique_ptr<World> world_;
  /// Serial engine only: the one stack over every node, and the fault plan.
  std::unique_ptr<NodeStack> stack_;
  std::unique_ptr<FaultPlan> fault_plan_;
  /// Non-null iff the effective shard count is > 1.
  std::unique_ptr<sharded::ShardedScenario> sharded_engine_;
  bool ran_ = false;

  /// The serial engine's stack; asserts on sharded runs.
  NodeStack& serial_stack();
};

}  // namespace vanet::sim
