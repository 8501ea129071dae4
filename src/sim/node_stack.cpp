#include "sim/node_stack.h"

#include <stdexcept>
#include <utility>

#include "net/fading.h"
#include "routing/registry.h"
#include "sim/scenario.h"

namespace vanet::sim {

namespace {

std::unique_ptr<net::PropagationModel> make_propagation(
    const ScenarioConfig& cfg) {
  switch (cfg.phy) {
    case PhyModel::kShadowing:
      return std::make_unique<net::LogNormalShadowingModel>(cfg.signal);
    case PhyModel::kNakagami:
      // Thrown (not asserted): a bad sweep axis must become a structured
      // failure row in the experiment engine, not a process abort.
      if (cfg.nakagami_m < 1) {
        throw std::invalid_argument("phy.nakagami_m must be >= 1");
      }
      return std::make_unique<net::NakagamiFadingModel>(cfg.signal,
                                                        cfg.nakagami_m);
    case PhyModel::kUnitDisk:
      break;
  }
  return std::make_unique<net::UnitDiskModel>(cfg.comm_range_m);
}

/// The lifetime memo mode: interp by opt-in, else exact, else none.
std::unique_ptr<analysis::LifetimeMemo> make_lifetime_memo(
    const ScenarioConfig& cfg) {
  if (cfg.lifetime_interp) {
    return std::make_unique<analysis::LifetimeMemo>(
        analysis::LifetimeMemo::Mode::kInterp);
  }
  if (cfg.lifetime_memo) return std::make_unique<analysis::LifetimeMemo>();
  return nullptr;
}

}  // namespace

NodeStack::NodeStack(const ScenarioConfig& cfg, World& world,
                     core::Simulator& sim, Options opts)
    : sim_{sim}, rngs_{cfg.seed} {
  const std::string& suffix = opts.stream_suffix;
  net_ = std::make_unique<net::Network>(sim_, &world.mobility(),
                                        make_propagation(cfg),
                                        rngs_.stream("net" + suffix), cfg.net);
  for (std::size_t v = 0; v < world.vehicle_count(); ++v) {
    net_->add_vehicle_node(static_cast<mobility::VehicleId>(v));
  }
  net_->set_shard_bridge(opts.bridge);
  for (const core::Vec2 pos : opts.rsus) net_->add_rsu(pos);
  if (!opts.rsus.empty()) net_->connect_backbone();
  for (const net::NodeId id : net_->node_ids()) {
    if (!opts.owns || opts.owns(id)) owned_.push_back(id);
  }

  // Stack-owned caches: shard stacks run concurrently, so nothing mutable
  // is shared between them. A shard's own snapshot has no prover — its
  // index fallback answers bit-identically.
  memo_ = make_lifetime_memo(cfg);
  map::SegmentSnapshot* snapshot = opts.snapshot;
  if (snapshot == nullptr) {
    own_snapshot_ =
        std::make_unique<map::SegmentSnapshot>(world.segment_index());
    snapshot = own_snapshot_.get();
  }

  routing::ProtocolDeps deps;
  deps.signal = cfg.signal;
  deps.road_graph = world.road_graph();
  deps.density = world.density();
  deps.ferries = world.ferries();
  deps.yan_tickets = cfg.yan_tickets;
  deps.zone_geometry = cfg.zone_geometry;
  deps.grid_geometry = cfg.grid_geometry;
  deps.gvgrid_geometry = cfg.gvgrid_geometry;
  deps.etx = cfg.etx;
  deps.flood_suppression = cfg.flood_suppression;
  protocols_.resize(net_->node_count());
  for (const net::NodeId id : owned_) {
    protocols_[id] = routing::ProtocolRegistry::make(cfg.protocol, deps);
  }
  if (!owned_.empty() && protocols_[owned_.front()]->wants_hello()) {
    hello_ = std::make_unique<net::HelloService>(
        *net_, rngs_.stream("hello" + suffix), cfg.hello);
  }
  core::Rng& proto_rng = rngs_.stream("proto" + suffix);
  for (const net::NodeId id : owned_) {
    routing::ProtocolContext ctx;
    ctx.sim = &sim_;
    ctx.net = net_.get();
    ctx.hello = hello_.get();
    ctx.rng = &proto_rng;
    ctx.events = &events_;
    ctx.self = id;
    // Every protocol sees the road topology the vehicles drive on and the
    // stack's caches (non-owning; the scenario outlives the protocols).
    ctx.map = world.road_graph().get();
    ctx.segments = &world.segment_index();
    ctx.lifetime_memo = memo_.get();
    ctx.seg_snapshot = snapshot;
    protocols_[id]->bind(ctx);

    net_->set_receive_handler(id, [this, id](const net::Packet& p) {
      if (p.kind == net::PacketKind::kHello) {
        if (hello_) hello_->on_frame(id, p);
        return;
      }
      protocols_[id]->handle_frame(p);
    });
    net_->set_unicast_fail_handler(id, [this, id](const net::Packet& p) {
      protocols_[id]->handle_unicast_failure(p);
    });
    protocols_[id]->set_deliver_callback([this](const net::Packet& p) {
      metrics_.record_delivery(p.flow, p.seq, p.created_at, sim_.now(), p.hops);
    });
  }

  std::vector<routing::RoutingProtocol*> raw;
  raw.reserve(protocols_.size());
  for (auto& p : protocols_) raw.push_back(p.get());
  traffic_ = std::make_unique<CbrTraffic>(sim_, *net_, std::move(raw),
                                          world.vehicle_count(), metrics_,
                                          rngs_.stream("traffic"), cfg.traffic);
  if (opts.owns) traffic_->set_source_filter(std::move(opts.owns));
}

void NodeStack::start() {
  if (hello_) hello_->start(owned_);
  for (const net::NodeId id : owned_) protocols_[id]->start();
  traffic_->start();
}

}  // namespace vanet::sim
