// Region-sharded scenario engine: one event loop per map region.
//
// The serial Scenario runs every event of a run through one Simulator. This
// engine partitions the road graph into K contiguous regions
// (map::partition_regions), gives each region its own Simulator and a
// NodeStack over the nodes it owns, and advances the shards in lockstep
// windows of kWindow (1 ms) under a conservative-lookahead contract:
//
//  - Ownership: every node belongs to exactly one shard — the region owning
//    the road segment nearest its *initial* position. The owner drives the
//    node's MAC, protocol instance and hello beacons ("owner wins"); every
//    other shard holds a read-only position mirror (its Network replica
//    tracks all N vehicles off the shared MobilityManager), so carrier
//    sense and reception fan-out see the same geometry everywhere.
//  - Windows: all shards execute events in [T, T+W) independently, then
//    barrier. Cross-shard receptions discovered inside a window are posted
//    through net::ShardBridge into per-(src,dst) mailboxes and resolved by
//    the receiver's shard at the next barrier — at most W late. W stays
//    far below the MAC's 50 ms channel-memory horizon.
//  - The coordinator loop — the Scenario's Simulator, which the World
//    schedules on — owns global services (mobility ticks, the density
//    oracle refresh, reachability sampling) and only runs between windows;
//    window edges always land exactly on coordinator event times, so
//    position updates happen at the same simulated instants as serially.
//  - Determinism: partition, ownership, per-shard RNG streams and mailbox
//    drain order (source shard 0..K-1, generation order within a source)
//    are all pure functions of the config — results are bit-identical for
//    any worker-thread count, which the digest-equivalence tests pin
//    (threads=1 vs threads=K).
//
// Restrictions (validated at construction): phy=unitdisk (cross-cut
// receptions must not consume fade draws), no RSUs and no fault plan. See
// docs/ARCHITECTURE.md "Sharded engine" for the full fidelity contract and
// the documented deviations from the serial MAC at region cuts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulator.h"
#include "map/region_partition.h"
#include "net/shard_bridge.h"
#include "sim/node_stack.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace vanet::sim::sharded {

/// One buffered cross-shard message: a reception handoff or, flowing the
/// other way, the decode verdict a parked unicast sender waits on.
struct Handoff {
  bool is_verdict = false;
  net::ChannelState::Tx tx;  ///< the foreign frame (reception only)
  net::Packet packet;        ///< frame payload (reception only)
  /// Receiver id (reception) or transmitter id (verdict).
  net::NodeId node = 0;
  bool want_verdict = false;  ///< reception: answer with a verdict
  bool delivered = false;     ///< verdict payload
};

class ShardedScenario {
 public:
  /// Throws std::invalid_argument on configs outside the shard contract.
  static void validate_config(const ScenarioConfig& cfg);

  /// Builds the K-shard model for `cfg` over `world` (effective K from
  /// resolve_shard_count, clamped by the partitioner to the segment count);
  /// `world`'s Simulator is the coordinator loop. `cfg` must have passed
  /// validate_config, and both must outlive the engine.
  ShardedScenario(const ScenarioConfig& cfg, World& world);
  ~ShardedScenario();

  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  /// Conservative lookahead window: shards run [T, T+W) independently and
  /// exchange cross-cut receptions at the barriers, so a cross-shard frame
  /// resolves at most W late.
  static constexpr core::SimTime kWindow = core::SimTime::millis(1);

  /// Drive the coordinator and shard loops through the configured duration
  /// in windows. Scenario::run starts mobility, the stacks and reachability
  /// first, and guards against a second call. An abort check installed on
  /// the coordinator (RunGuards) is also polled after every window, with
  /// the workers parked; if it throws, the workers are released and joined
  /// before the exception leaves.
  void run();

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return threads_; }
  /// Owning shard of node `id`.
  int owner_of(net::NodeId id) const {
    return node_shard_[static_cast<std::size_t>(id)];
  }
  const std::vector<net::NodeId>& owned_ids(int shard) const;
  NodeStack& stack(int shard);

  /// Cross-shard traffic telemetry (receptions handed off / verdicts sent).
  std::uint64_t handoff_receptions() const;
  std::uint64_t handoff_verdicts() const;

 private:
  class Bridge;
  struct Shard;

  void distribute_mailboxes();
  void run_shard_window(int shard);

  const ScenarioConfig& cfg_;
  World& world_;  ///< its Simulator is the coordinator loop
  map::RegionPartition partition_;
  std::vector<int> node_shard_;  ///< node id -> owning shard
  int threads_ = 1;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// outbox_[src][dst]: written only by shard src's thread inside a window,
  /// moved into dst's inbox by the coordinator between windows (the barrier
  /// orders the two phases, so no lock is ever needed).
  std::vector<std::vector<std::vector<Handoff>>> outbox_;

  // Window state published by the coordinator before releasing the workers.
  core::SimTime window_end_{};
  bool final_window_ = false;
  bool stop_workers_ = false;
};

}  // namespace vanet::sim::sharded
