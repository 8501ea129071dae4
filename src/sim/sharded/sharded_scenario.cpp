#include "sim/sharded/sharded_scenario.h"

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace vanet::sim::sharded {

namespace {

void merge_events(routing::ProtocolEvents& into,
                  const routing::ProtocolEvents& from) {
  into.discoveries_started += from.discoveries_started;
  into.routes_established += from.routes_established;
  into.route_breaks += from.route_breaks;
  into.preemptive_rebuilds += from.preemptive_rebuilds;
  into.data_forwarded += from.data_forwarded;
  into.data_dropped_no_route += from.data_dropped_no_route;
  into.data_dropped_ttl += from.data_dropped_ttl;
  into.rreq_at_target += from.rreq_at_target;
  into.rrep_sent += from.rrep_sent;
  into.rrep_relayed += from.rrep_relayed;
  into.rrep_stranded += from.rrep_stranded;
  into.predicted_route_lifetime.merge(from.predicted_route_lifetime);
  into.observed_route_lifetime.merge(from.observed_route_lifetime);
  into.suppressed_rebroadcasts += from.suppressed_rebroadcasts;
  into.etx_link_abs_error.merge(from.etx_link_abs_error);
}

void add_counters(net::NetCounters& into, const net::NetCounters& from) {
  into.frames_enqueued += from.frames_enqueued;
  into.frames_sent += from.frames_sent;
  into.frames_dropped_queue += from.frames_dropped_queue;
  into.frames_dropped_down += from.frames_dropped_down;
  into.receptions_ok += from.receptions_ok;
  into.receptions_collided += from.receptions_collided;
  into.receptions_faded += from.receptions_faded;
  into.unicast_retries += from.unicast_retries;
  into.unicast_failures += from.unicast_failures;
  into.backbone_frames += from.backbone_frames;
  into.bytes_sent += from.bytes_sent;
  into.data_frames_sent += from.data_frames_sent;
  into.control_frames_sent += from.control_frames_sent;
  into.hello_frames_sent += from.hello_frames_sent;
}

}  // namespace

/// All per-shard state: a loop of its own and a NodeStack over the owned
/// nodes. The stack's Network mirrors every vehicle's position (the shared
/// MobilityManager refreshes all K mirrors in the coordinator phase).
struct ShardedScenario::Shard {
  core::Simulator sim;
  std::unique_ptr<Bridge> bridge;
  std::unique_ptr<NodeStack> stack;
  /// Handoffs addressed to this shard, filled by the coordinator between
  /// windows and drained at the start of run_shard_window.
  std::vector<Handoff> inbox;
  std::uint64_t handoff_receptions = 0;
  std::uint64_t handoff_verdicts = 0;
};

/// The per-shard net::ShardBridge: routes cross-cut receptions and unicast
/// verdicts into the owning shard's outbox row. Called only from the shard's
/// own window execution, so the row needs no lock.
class ShardedScenario::Bridge final : public net::ShardBridge {
 public:
  Bridge(ShardedScenario& eng, int shard) : eng_{eng}, shard_{shard} {}

  bool owned(net::NodeId id) const override {
    return eng_.owner_of(id) == shard_;
  }

  void post_reception(const net::ChannelState::Tx& tx,
                      const net::Packet& packet, net::NodeId rx,
                      bool want_verdict) override {
    Handoff h;
    h.tx = tx;
    h.packet = packet;
    h.node = rx;
    h.want_verdict = want_verdict;
    eng_.outbox_[static_cast<std::size_t>(shard_)]
                [static_cast<std::size_t>(eng_.owner_of(rx))]
                    .push_back(std::move(h));
    ++eng_.shards_[static_cast<std::size_t>(shard_)]->handoff_receptions;
  }

  void post_verdict(net::NodeId tx_node, bool delivered) override {
    Handoff h;
    h.is_verdict = true;
    h.node = tx_node;
    h.delivered = delivered;
    eng_.outbox_[static_cast<std::size_t>(shard_)]
                [static_cast<std::size_t>(eng_.owner_of(tx_node))]
                    .push_back(std::move(h));
    ++eng_.shards_[static_cast<std::size_t>(shard_)]->handoff_verdicts;
  }

 private:
  ShardedScenario& eng_;
  int shard_;
};

void ShardedScenario::validate_config(const ScenarioConfig& cfg) {
  if (cfg.phy != PhyModel::kUnitDisk) {
    throw std::invalid_argument(
        "scenario.shards > 1 requires phy.model=unitdisk: lossy models draw "
        "per-reception fades from the sender's RNG, and a cross-shard "
        "reception would consume them out of stream order");
  }
  if (cfg.rsu_count > 0) {
    throw std::invalid_argument(
        "scenario.shards > 1 does not support RSUs (the wired backbone "
        "bypasses the region handoff contract)");
  }
  if (cfg.fault.enabled) {
    throw std::invalid_argument(
        "scenario.shards > 1 does not support fault injection");
  }
  if (!(cfg.shard_window_ms > 0.0) || cfg.shard_window_ms > 20.0) {
    throw std::invalid_argument(
        "scenario.shard_window_ms must be in (0, 20] — the conservative "
        "window has to stay far below the MAC's 50 ms channel-memory "
        "horizon");
  }
  if (core::SimTime::seconds(cfg.shard_window_ms / 1000.0) <=
      core::SimTime{}) {
    throw std::invalid_argument(
        "scenario.shard_window_ms rounds to zero simulated time");
  }
  if (cfg.shard_threads < 0) {
    throw std::invalid_argument("scenario.shard_threads must be >= 0");
  }
}

ShardedScenario::ShardedScenario(const ScenarioConfig& cfg, World& world)
    : cfg_{cfg}, world_{world} {
  partition_ =
      map::partition_regions(*world_.road_graph(), resolve_shard_count(cfg_));
  // Static ownership: the region of the segment nearest each vehicle's
  // *initial* position owns its node for the whole run. Vehicles that drive
  // into another region keep their home shard — correctness never depends on
  // ownership matching current geometry, only locality does.
  const auto& initial = world_.mobility().vehicles();
  node_shard_.resize(world_.vehicle_count());
  for (std::size_t v = 0; v < node_shard_.size(); ++v) {
    const int seg = world_.segment_index().nearest_segment(initial[v].pos);
    node_shard_[v] = partition_.segment_region[static_cast<std::size_t>(seg)];
  }
  const int k = partition_.regions;
  threads_ = cfg_.shard_threads == 0 ? k : std::min(cfg_.shard_threads, k);
  outbox_.assign(static_cast<std::size_t>(k),
                 std::vector<std::vector<Handoff>>(static_cast<std::size_t>(k)));
  shards_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    auto& sh = *shards_.emplace_back(std::make_unique<Shard>());
    sh.bridge = std::make_unique<Bridge>(*this, s);
    NodeStack::Options opts;
    opts.stream_suffix = ".shard" + std::to_string(s);
    opts.bridge = sh.bridge.get();
    opts.owns = [this, s](net::NodeId id) { return owner_of(id) == s; };
    sh.stack =
        std::make_unique<NodeStack>(cfg_, world_, sh.sim, std::move(opts));
  }
}

ShardedScenario::~ShardedScenario() = default;

const std::vector<net::NodeId>& ShardedScenario::owned_ids(int shard) const {
  return stack(shard).owned();
}

const NodeStack& ShardedScenario::stack(int shard) const {
  return *shards_.at(static_cast<std::size_t>(shard))->stack;
}

void ShardedScenario::distribute_mailboxes() {
  const int k = shards();
  for (int dst = 0; dst < k; ++dst) {
    auto& inbox = shards_[static_cast<std::size_t>(dst)]->inbox;
    // Drain order is part of the determinism contract: source shard
    // 0..K-1, generation order within a source.
    for (int src = 0; src < k; ++src) {
      auto& box = outbox_[static_cast<std::size_t>(src)]
                         [static_cast<std::size_t>(dst)];
      for (Handoff& h : box) inbox.push_back(std::move(h));
      box.clear();
    }
  }
}

void ShardedScenario::run_shard_window(int shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  // Resolve buffered handoffs first: the shard clock sits exactly at the
  // window-start barrier (run_before advanced it even through empty
  // windows), so resolution timestamps are a pure function of the window
  // grid — not of which worker thread got here first.
  net::Network& net = sh.stack->network();
  for (Handoff& h : sh.inbox) {
    if (h.is_verdict) {
      net.complete_unicast(h.node, h.delivered);
    } else {
      net.deliver_foreign(h.tx, h.packet, h.node, h.want_verdict);
    }
  }
  sh.inbox.clear();
  if (final_window_) {
    // Inclusive: events scheduled exactly at the end instant run, matching
    // the serial engine's single run_until(duration).
    sh.sim.run_until(window_end_);
  } else {
    sh.sim.run_before(window_end_);
  }
}

void ShardedScenario::run() {
  world_.mobility().start();
  for (auto& shp : shards_) shp->stack->start();
  // Geometry is identical on every shard's Network mirror, and shard 0's
  // flow list is every shard's (same "traffic" stream), so sampling through
  // shard 0 reproduces the serial oracle.
  world_.start_reachability(*shards_.front()->stack);
  const core::SimTime end = core::SimTime::seconds(cfg_.duration_s);
  const core::SimTime window =
      core::SimTime::seconds(cfg_.shard_window_ms / 1000.0);

  // Persistent worker pool. Thread t drives shards t, t+T, t+2T, ... in
  // increasing order, so any thread count executes the same shard sequences
  // — threads=1 is the serial reference execution of the identical model.
  std::barrier<> start_gate(threads_ + 1);
  std::barrier<> finish_gate(threads_ + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    workers.emplace_back([this, t, &start_gate, &finish_gate] {
      while (true) {
        start_gate.arrive_and_wait();
        if (stop_workers_) return;
        for (int s = t; s < shards(); s += threads_) run_shard_window(s);
        finish_gate.arrive_and_wait();
      }
    });
  }

  core::Simulator& coord = world_.simulator();
  core::SimTime now{};
  while (true) {
    // Serial coordinator phase: mobility ticks (which refresh every shard's
    // position mirror through the Network tick listeners), density refresh
    // and reachability samples all run while the workers are parked.
    coord.run_until(now);
    // Conservative window edge: never past the next coordinator event, so
    // global state is frozen from every shard's point of view inside a
    // window — the core lookahead argument.
    core::SimTime next = std::min(now + window, coord.next_event_time());
    next = std::min(next, end);
    window_end_ = next;
    final_window_ = next >= end;
    distribute_mailboxes();
    start_gate.arrive_and_wait();   // publish window, release workers
    finish_gate.arrive_and_wait();  // all shards reached the window edge
    now = next;
    if (final_window_) break;
  }
  stop_workers_ = true;
  start_gate.arrive_and_wait();
  for (std::thread& w : workers) w.join();
  // Coordinator events at exactly the end instant (final mobility tick on
  // round durations) still run, as they would under the serial engine.
  coord.run_until(end);
}

ScenarioReport ShardedScenario::report() const {
  Metrics merged;
  net::NetCounters counters{};
  routing::ProtocolEvents events;
  // Shard order 0..K-1 is fixed, so merged RunningStats (order-sensitive in
  // floating point) are as deterministic as everything else.
  for (const auto& shp : shards_) {
    merged.merge_from(shp->stack->metrics());
    add_counters(counters, shp->stack->network().counters());
    merge_events(events, shp->stack->events());
  }
  return assemble_report(cfg_, merged, counters, events,
                         world_.reachable_samples(), world_.total_samples());
}

std::uint64_t ShardedScenario::events_dispatched() const {
  std::uint64_t total = world_.simulator().events_dispatched();
  for (const auto& shp : shards_) total += shp->sim.events_dispatched();
  return total;
}

core::EventQueue::AllocStats ShardedScenario::scheduler_stats() const {
  core::EventQueue::AllocStats total = world_.simulator().scheduler_stats();
  for (const auto& shp : shards_) {
    const core::EventQueue::AllocStats& s = shp->sim.scheduler_stats();
    total.slab_allocations += s.slab_allocations;
    total.oversize_callbacks += s.oversize_callbacks;
    total.peak_pending = std::max(total.peak_pending, s.peak_pending);
  }
  return total;
}

std::uint64_t ShardedScenario::handoff_receptions() const {
  std::uint64_t total = 0;
  for (const auto& shp : shards_) total += shp->handoff_receptions;
  return total;
}

std::uint64_t ShardedScenario::handoff_verdicts() const {
  std::uint64_t total = 0;
  for (const auto& shp : shards_) total += shp->handoff_verdicts;
  return total;
}

}  // namespace vanet::sim::sharded
