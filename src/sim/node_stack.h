// One protocol stack bound to one Simulator, for a set of owned node ids:
// Network, hello service, routing protocols, collectors and CBR traffic.
// Protocol deps, ProtocolContext binding and the receive / unicast-fail /
// deliver handlers are written here only. The serial engine runs one stack
// over every node; the sharded engine one per shard, on the shard's loop.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lifetime_memo.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "core/vec2.h"
#include "map/segment_snapshot.h"
#include "net/hello.h"
#include "net/network.h"
#include "net/shard_bridge.h"
#include "routing/protocol.h"
#include "sim/metrics.h"
#include "sim/traffic.h"
#include "sim/world.h"

namespace vanet::sim {

struct ScenarioConfig;

class NodeStack {
 public:
  struct Options {
    /// Appended to the "net", "hello" and "proto" RNG stream names: "" on
    /// the serial engine, ".shardN" on shard N. "traffic" is never
    /// suffixed, so every stack of a run draws the identical flow list.
    std::string stream_suffix;
    /// Cross-shard hand-off of the stack's Network (sharded engine only).
    net::ShardBridge* bridge = nullptr;
    /// The node ids this stack runs protocols and traffic sources for; null
    /// owns every node.
    std::function<bool(net::NodeId)> owns;
    /// Roadside units, added after the vehicles and joined by the wired
    /// backbone (serial engine only).
    std::vector<core::Vec2> rsus;
    /// Segment snapshot handed to the protocols; null gives the stack one
    /// of its own.
    map::SegmentSnapshot* snapshot = nullptr;
  };

  /// Builds the stack on `sim` over `world`'s vehicles. Any scheduling a
  /// protocol does in bind() happens here.
  NodeStack(const ScenarioConfig& cfg, World& world, core::Simulator& sim,
            Options opts);

  /// Starts hello beacons, the owned protocols and the traffic source.
  void start();

  net::Network& network() { return *net_; }
  /// Null for hello-less protocols.
  net::HelloService* hello() { return hello_.get(); }
  routing::RoutingProtocol& protocol_at(net::NodeId id) {
    return *protocols_.at(id);
  }
  routing::ProtocolEvents& events() { return events_; }
  Metrics& metrics() { return metrics_; }
  const CbrTraffic& traffic() const { return *traffic_; }
  const std::vector<net::NodeId>& owned() const { return owned_; }
  /// Null when `lifetime.memo=false` and `lifetime.interp=false`.
  const analysis::LifetimeMemo* lifetime_memo() const { return memo_.get(); }

 private:
  core::Simulator& sim_;
  /// Seeded with the scenario seed: streams are keyed by name only, so the
  /// serial stack draws exactly what the scenario's own manager would.
  core::RngManager rngs_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::HelloService> hello_;
  std::vector<net::NodeId> owned_;
  /// Indexed by node id; only owned slots are constructed.
  std::vector<std::unique_ptr<routing::RoutingProtocol>> protocols_;
  routing::ProtocolEvents events_;
  Metrics metrics_;
  std::unique_ptr<CbrTraffic> traffic_;
  std::unique_ptr<analysis::LifetimeMemo> memo_;
  std::unique_ptr<map::SegmentSnapshot> own_snapshot_;
};

}  // namespace vanet::sim
