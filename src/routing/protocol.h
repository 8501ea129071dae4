// Routing protocol framework.
//
// One RoutingProtocol instance runs per node. The framework owns mechanics
// shared by all protocols (packet construction, send/deliver plumbing,
// event accounting); concrete protocols implement policy only. The five
// categories match the paper's taxonomy (Fig. 1).
#pragma once

#include <functional>
#include <string_view>

#include "analysis/stats.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "net/hello.h"
#include "net/network.h"
#include "net/packet.h"

namespace vanet::analysis {
class LifetimeMemo;
}  // namespace vanet::analysis

namespace vanet::map {
class RoadGraph;
class SegmentIndex;
class SegmentSnapshot;
}  // namespace vanet::map

namespace vanet::routing {

/// Geometry backend of the road-geometry protocols (zone / grid / gvgrid).
/// kLine is the historical axis-aligned plane: straight src→dst corridors and
/// square coordinate cells. kRoute reasons over the shared map instead —
/// corridors follow the shortest road route (map::RouteCorridor) and cells
/// group road segments (map::SegmentCells). On lattice maps (RoadGraph::
/// is_grid()) kRoute intentionally reduces to the kLine predicates: every
/// point near the straight line is near a road there, so the plane geometry
/// IS the road geometry — which keeps the two modes decision-identical on
/// grids (property-tested) and the golden digests stable.
enum class GeometryMode { kLine, kRoute };

/// The paper's taxonomy (Fig. 1).
enum class Category {
  kConnectivity,
  kMobility,
  kInfrastructure,
  kGeographic,
  kProbability,
};

std::string_view to_string(Category c);

/// Run-wide protocol event accounting, shared by all nodes of a scenario.
struct ProtocolEvents {
  std::uint64_t discoveries_started = 0;
  std::uint64_t routes_established = 0;
  std::uint64_t route_breaks = 0;
  std::uint64_t preemptive_rebuilds = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped_no_route = 0;
  std::uint64_t data_dropped_ttl = 0;
  // Discovery-path diagnostics (on-demand family).
  std::uint64_t rreq_at_target = 0;   ///< RREQ copies arriving at their target
  std::uint64_t rrep_sent = 0;        ///< replies originated by destinations
  std::uint64_t rrep_relayed = 0;     ///< replies forwarded by intermediates
  std::uint64_t rrep_stranded = 0;    ///< replies dropped: reverse route gone
  analysis::RunningStats predicted_route_lifetime;  ///< seconds, at establish
  analysis::RunningStats observed_route_lifetime;   ///< establish -> break
  // Link-quality family diagnostics (routing/linkquality/).
  std::uint64_t suppressed_rebroadcasts = 0;  ///< flood.suppression cancels
  /// |estimated link ETX - analytic ETX at the true distance|, sampled per
  /// live link at each beacon (etx protocol only).
  analysis::RunningStats etx_link_abs_error;
};

struct ProtocolContext {
  core::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  net::HelloService* hello = nullptr;  ///< null when the protocol opted out
  core::Rng* rng = nullptr;
  ProtocolEvents* events = nullptr;
  net::NodeId self = 0;
  // Shared road topology (src/map/), non-owning: the scenario that binds the
  // protocol owns both and keeps them alive for the protocol's lifetime (see
  // docs/ARCHITECTURE.md, "ProtocolContext ownership"). Null in harnesses
  // that route over bare coordinates — protocols must treat the map as
  // optional and fall back to their GeometryMode::kLine path.
  const map::RoadGraph* map = nullptr;
  const map::SegmentIndex* segments = nullptr;
  // Scenario-owned caches (null in bare harnesses — protocols fall back to
  // direct computation; cached and uncached paths are bit-identical, see
  // docs/ARCHITECTURE.md "Scenario-owned caches"). Mutable shared state, but
  // each is used by one event loop only, so no synchronisation is needed.
  analysis::LifetimeMemo* lifetime_memo = nullptr;
  map::SegmentSnapshot* seg_snapshot = nullptr;
};

class RoutingProtocol {
 public:
  using DeliverCallback = std::function<void(const net::Packet&)>;

  virtual ~RoutingProtocol() = default;

  /// Wire the instance to its node. Must be called exactly once, before start().
  void bind(const ProtocolContext& ctx);

  /// Called once at scenario start (timers, proactive state).
  virtual void start() {}

  /// Every decoded frame addressed to this node (unicast to it or broadcast),
  /// except hello beacons which the dispatcher feeds to the HelloService.
  virtual void handle_frame(const net::Packet& p) = 0;

  /// MAC retries exhausted for a unicast frame this node sent.
  virtual void handle_unicast_failure(const net::Packet& p) { (void)p; }

  /// Application asks to send `bytes` of payload to `dst`.
  /// Returns false when the protocol rejects the packet outright.
  virtual bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                         std::size_t bytes) = 0;

  virtual std::string_view name() const = 0;
  virtual Category category() const = 0;
  /// Protocols that need neighbor awareness pay for hello beacons.
  virtual bool wants_hello() const { return false; }

  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

 protected:
  net::NodeId self() const { return ctx_.self; }
  core::SimTime now() const { return ctx_.sim->now(); }
  core::Rng& rng() const { return *ctx_.rng; }
  net::Network& network() const { return *ctx_.net; }
  ProtocolEvents& events() const { return *ctx_.events; }
  /// Neighbor table of this node; precondition: wants_hello().
  const net::NeighborTable& neighbors() const;

  /// True when the binder supplied the shared road topology.
  bool has_map() const { return ctx_.map != nullptr && ctx_.segments != nullptr; }
  /// Shared road graph / segment index; precondition: has_map().
  const map::RoadGraph& road_map() const;
  const map::SegmentIndex& segment_index() const;

  /// Scenario-owned caches; null when the binder did not supply them.
  analysis::LifetimeMemo* lifetime_memo() const { return ctx_.lifetime_memo; }
  map::SegmentSnapshot* seg_snapshot() const { return ctx_.seg_snapshot; }
  /// Nearest segment to node `id` at its current position `pos`: the
  /// scenario snapshot when bound, a direct index query otherwise.
  /// Bit-identical either way. Precondition: has_map(); `pos` must be the
  /// node's current tick-aligned position (never an extrapolation).
  int snapped_segment(net::NodeId id, core::Vec2 pos) const;

  /// Fresh data packet originated here.
  net::Packet make_data(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                        std::size_t bytes) const;

  /// L2 sends. `broadcast` clears rx; `unicast` sets it.
  void broadcast(net::Packet p) const;
  void unicast(net::NodeId next_hop, net::Packet p) const;

  /// Hand a data packet that reached its destination to the application.
  void deliver(const net::Packet& p) const;

  /// Uniform jitter in [0, max_ms] milliseconds — de-synchronises rebroadcasts.
  core::SimTime jitter(double max_ms) const;
  /// Forward the callable straight into the scheduler's inline storage (no
  /// std::function round-trip, so Packet-sized captures stay allocation-free).
  template <typename F>
  void schedule(core::SimTime delay, F&& fn) const {
    ctx_.sim->schedule(delay, std::forward<F>(fn));
  }

  ProtocolContext ctx_;

 private:
  DeliverCallback deliver_cb_;
};

}  // namespace vanet::routing
