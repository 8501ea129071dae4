#include "routing/linkquality/etx_agent.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/assert.h"

namespace vanet::routing {

namespace {

/// Wire-size accounting for the piggyback payload, mirroring the DSDV table
/// dump costing: id + quantized ratio per link entry, id + quantized
/// distance + sequence per route entry.
constexpr std::size_t kLinkEntryBytes = 6;
constexpr std::size_t kRouteEntryBytes = 10;

/// Outgoing beacons that carry a fresh route invalidation before it goes
/// quiet (it keeps filtering locally): enough repetitions to survive a lossy
/// channel, without letting long-lived nodes accrete unbounded kill payload.
constexpr int kKillBeacons = 3;

}  // namespace

EtxAgent::EtxAgent(net::NodeId self, EtxConfig cfg)
    : self_{self}, table_{cfg} {}

void EtxAgent::attach(net::HelloService& hello) {
  hello.set_beacon_extension(
      self_, [this](net::HelloHeader& h) { return fill_beacon(h); });
  hello.set_frame_observer(
      self_, [this](const net::Packet& p, const net::HelloHeader& h) {
        on_hello(p, h);
      });
  hello.set_loss_callback(self_,
                          [this](net::NodeId lost) { on_neighbor_lost(lost); });
}

std::size_t EtxAgent::fill_beacon(net::HelloHeader& h) {
  // Link reports: "I receive you with ratio r" for every live link, sorted
  // by id — each named neighbor reads its own entry back as its df.
  const std::vector<net::NodeId>& nbrs = table_.neighbors();
  h.links.reserve(nbrs.size());
  for (const net::NodeId n : nbrs) {
    h.links.push_back({n, table_.reverse_ratio(n)});
  }
  // Distance vector: self at distance 0 (destination-sequenced, even like
  // DSDV's valid routes), then the current Dijkstra distances by id.
  own_seq_ += 2;
  compute_routes();
  std::sort(reached_.begin(), reached_.end());
  h.routes.reserve(reached_.size() + active_kills_ + 1);
  h.routes.emplace_back(self_, 0.0, own_seq_);
  for (const net::NodeId dst : reached_) {
    // Re-advertise each destination with the freshest sequence seen for it,
    // so the destination's clock propagates monotonically hop by hop. (A
    // route with no sequence on record is a bare measured link: seq 0.)
    h.routes.emplace_back(dst, routes_[dst].dist, dst_seqs_[dst]);
  }
  // Fresh invalidations ride along until their dissemination budget is
  // spent; the entries stay behind as local filters either way.
  if (active_kills_ != 0) {
    for (std::size_t dst = 0; dst < kills_.size(); ++dst) {
      Kill& kill = kills_[dst];
      if (!kill.active || kill.beacons_left <= 0) continue;
      --kill.beacons_left;
      h.routes.emplace_back(static_cast<net::NodeId>(dst),
                            LinkQualityTable::kMaxEtx, kill.seq);
    }
  }
  return kLinkEntryBytes * h.links.size() + kRouteEntryBytes * h.routes.size();
}

void EtxAgent::on_hello(const net::Packet& p, const net::HelloHeader& h) {
  grow_to(p.origin);
  table_.on_hello(p.origin, h.seq);
  for (const auto& link : h.links) {
    if (link.neighbor == self_) {
      table_.on_report(p.origin, link.ratio);
      break;
    }
  }
  // Advert intake: the sender's latest distance vector replaces the previous
  // one wholesale (it IS the sender's current view; merging would resurrect
  // entries the sender dropped). Entries routing back through us are kept —
  // Dijkstra's measured self->n edges dominate any n->self->... echo.
  // Filled into the scratch buffer (growth below may move the slots), then
  // swapped in: the slot's old buffer becomes the next intake's scratch.
  scratch_.clear();
  for (const auto& advert : h.routes) {
    if (advert.dst == self_) continue;
    grow_to(advert.dst);
    if (advert.dist >= LinkQualityTable::kMaxEtx) {
      // Poisoned advert (route invalidation): adopt it when it outruns both
      // our freshest sequence for the destination and any kill we hold.
      if (adopt_kill(advert.dst, advert.seq).seq <= dst_seqs_[advert.dst]) {
        drop_kill(advert.dst);
      }
      continue;
    }
    const Kill& kill = kills_[advert.dst];
    if (kill.active) {
      if (advert.seq <= kill.seq) continue;  // stale vs invalidation
      drop_kill(advert.dst);  // the destination moved past the kill: it lives
    }
    std::uint32_t& seq = dst_seqs_[advert.dst];
    seq = std::max(seq, advert.seq);
    scratch_.push_back(advert);
  }
  AdvertSlot& slot = adverts_[p.origin];
  slot.entries.swap(scratch_);
  slot.live = true;
  routes_dirty_ = true;
}

void EtxAgent::on_neighbor_lost(net::NodeId lost) {
  grow_to(lost);
  table_.erase(lost);
  adverts_[lost].entries.clear();
  adverts_[lost].live = false;
  // Originate a route invalidation one past the destination's freshest known
  // sequence: odd, so every stale advert for `lost` loses to it everywhere,
  // and only `lost` itself (whose own sequence is even and still advancing)
  // can override it by beaconing again.
  adopt_kill(lost, dst_seqs_[lost] + 1);
  routes_dirty_ = true;
}

void EtxAgent::grow(net::NodeId id) {
  // Ids come off received frames; the broadcast address is never a node,
  // and growing to it would try to allocate 2^32 slots.
  VANET_ASSERT_MSG(id != net::kBroadcastId,
                   "etx: broadcast id named as a hello origin or destination");
  const std::size_t size = std::size_t{id} + 1;
  adverts_.resize(size);
  dst_seqs_.resize(size);
  kills_.resize(size);
  routes_.resize(size);
}

EtxAgent::Kill& EtxAgent::adopt_kill(net::NodeId dst, std::uint32_t seq) {
  Kill& kill = kills_[dst];
  if (!kill.active) {
    kill = Kill{seq, kKillBeacons, true};
    ++active_kills_;
  } else if (seq > kill.seq) {
    kill.seq = seq;
    kill.beacons_left = kKillBeacons;
  }
  return kill;
}

void EtxAgent::drop_kill(net::NodeId dst) {
  kills_[dst] = Kill{};
  --active_kills_;
}

void EtxAgent::compute_routes() const {
  if (!routes_dirty_) return;
  routes_dirty_ = false;
  for (const net::NodeId id : reached_) routes_[id] = Route{};
  reached_.clear();

  // Dijkstra over the two-layer topology. Ties broken by node id so the
  // settle order — and hence every first_hop choice — is deterministic.
  // Only nodes holding adverts enter the frontier: settling any other node
  // relaxes nothing, so leaving it out changes no route. Callers check
  // cost < kMaxEtx first, so an unreached id always relaxes.
  constexpr std::greater<std::pair<double, net::NodeId>> later;
  Route* const routes = routes_.data();
  const auto relax = [this, routes, later](net::NodeId node, double cost,
                                           net::NodeId first_hop) {
    Route& route = routes[node];
    if (!(cost < route.dist)) return;
    if (route.dist >= LinkQualityTable::kMaxEtx) reached_.push_back(node);
    route = Route{cost, first_hop};
    if (adverts_[node].entries.empty()) return;
    frontier_.emplace_back(cost, node);
    std::push_heap(frontier_.begin(), frontier_.end(), later);
  };
  for (const net::NodeId n : table_.neighbors()) {
    const double cost = table_.etx(n);
    if (cost >= LinkQualityTable::kMaxEtx) continue;
    relax(n, cost, n);
  }
  const Kill* const kills = active_kills_ != 0 ? kills_.data() : nullptr;
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), later);
    const auto [cost, node] = frontier_.back();
    frontier_.pop_back();
    if (cost > routes[node].dist) continue;
    const net::NodeId first_hop = routes[node].first_hop;
    for (const auto& advert : adverts_[node].entries) {
      // A kill learned after this slot was stored still applies: stale
      // entries for an invalidated destination must not open routes.
      if (kills != nullptr && kills[advert.dst].active &&
          advert.seq <= kills[advert.dst].seq) {
        continue;
      }
      const double total = cost + advert.dist;
      if (total >= LinkQualityTable::kMaxEtx) continue;
      relax(advert.dst, total, first_hop);
    }
  }
}

std::optional<net::NodeId> EtxAgent::next_hop(net::NodeId dst) const {
  compute_routes();
  if (dst >= routes_.size() ||
      routes_[dst].dist >= LinkQualityTable::kMaxEtx) {
    return std::nullopt;
  }
  return routes_[dst].first_hop;
}

double EtxAgent::distance_to(net::NodeId dst) const {
  if (dst == self_) return 0.0;
  compute_routes();
  if (dst >= routes_.size()) return LinkQualityTable::kMaxEtx;
  return std::min(routes_[dst].dist, LinkQualityTable::kMaxEtx);
}

}  // namespace vanet::routing
