// The per-node ETX machinery shared by the `etx` protocol and the flooding
// suppression mode: a LinkQualityTable fed by sequence-numbered hellos, a
// destination-sequenced distance vector piggybacked on the same hellos
// (net::HelloRouteEntry — no extra control frames), and Dijkstra over the
// resulting ETX-weighted neighbor topology.
//
// The graph Dijkstra runs over has two layers: measured edges self -> n for
// every live link (cost: the table's ETX estimate), and advertised edges
// n -> dst for every entry of n's last distance vector (cost: n's multi-hop
// ETX distance). Advert state is stored per advertising neighbor and dies
// with it (hello expiry), so a crashed neighbor can never leave dangling
// ETX edges behind — the same soft-state discipline as the tables.
//
// Storage: every per-node table is a vector indexed by NodeId (ids are dense
// 0..N-1 in a Network), grown on demand to the largest id this agent has
// heard, as origin or as advert destination. Dijkstra breaks ties by
// (cost, id), relaxes strictly and in advert-slot order, so the settle order
// — and every first_hop — is a pure function of the inputs, independent of
// the storage layout.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/hello.h"
#include "routing/linkquality/link_quality.h"

namespace vanet::routing {

class EtxAgent {
 public:
  EtxAgent(net::NodeId self, EtxConfig cfg);

  /// Convenience wiring: registers the beacon extension, frame observer and
  /// loss callback for `self` on the service. Protocols that need to wrap a
  /// hook (e.g. to sample metrics) register the callbacks themselves and
  /// forward to the fill_beacon / on_hello / on_neighbor_lost methods.
  void attach(net::HelloService& hello);

  /// Fill the piggyback fields of an outgoing beacon; returns the extra
  /// bytes they occupy on the air.
  std::size_t fill_beacon(net::HelloHeader& h);
  /// Process a received hello (estimator update + advert intake).
  void on_hello(const net::Packet& p, const net::HelloHeader& h);
  /// The hello layer expired `lost`: drop its link and its adverts.
  void on_neighbor_lost(net::NodeId lost);

  /// First hop of the cheapest ETX path to `dst`; nullopt when unreachable.
  std::optional<net::NodeId> next_hop(net::NodeId dst) const;
  /// Multi-hop ETX distance to `dst`; LinkQualityTable::kMaxEtx when
  /// unknown or unreachable (0 for self).
  double distance_to(net::NodeId dst) const;

  const LinkQualityTable& table() const { return table_; }
  /// True when any distance-vector advert from `from` is still held.
  bool has_adverts_from(net::NodeId from) const {
    return from < adverts_.size() && adverts_[from].live;
  }
  /// True while a route invalidation for `dst` is active (see kills_).
  bool has_kill_for(net::NodeId dst) const {
    return dst < kills_.size() && kills_[dst].active;
  }

 private:
  struct Route {
    double dist = LinkQualityTable::kMaxEtx;  ///< kMaxEtx: not reached
    net::NodeId first_hop = 0;
  };
  /// Last distance vector heard from one advertising neighbor. The entry
  /// buffer is reused across intakes (and dropped neighbors keep their
  /// capacity), so steady-state intake allocates nothing.
  struct AdvertSlot {
    std::vector<net::HelloRouteEntry> entries;
    bool live = false;  ///< an advert from this neighbor is held
  };
  /// Active route invalidations, DSDV-style: losing a neighbor originates a
  /// poisoned advert for it (dist = kMaxEtx) sequenced one past the
  /// destination's freshest known — odd, so only the destination itself can
  /// override it with a newer even beacon. Receivers adopt newer kills,
  /// drop the route and re-propagate; without this, two survivors'
  /// distance vectors would resurrect a dead destination's route off each
  /// other forever. Each kill rides `beacons_left` outgoing beacons (enough
  /// to disseminate) and then stays local as a filter, so beacons of nodes
  /// that outlive many neighbors don't grow without bound.
  struct Kill {
    std::uint32_t seq = 0;
    int beacons_left = 0;
    bool active = false;
  };

  /// Extends every id-indexed table to cover `id`.
  void grow_to(net::NodeId id) {
    if (id >= routes_.size()) grow(id);
  }
  void grow(net::NodeId id);
  /// Holds a kill for `dst` at `seq` or newer (fresh kills and newer
  /// sequences restart the dissemination budget).
  Kill& adopt_kill(net::NodeId dst, std::uint32_t seq);
  void drop_kill(net::NodeId dst);
  void compute_routes() const;

  net::NodeId self_;
  LinkQualityTable table_;
  /// Indexed by advertising neighbor.
  std::vector<AdvertSlot> adverts_;
  /// Intake buffer: filled, then swapped into the sender's slot.
  std::vector<net::HelloRouteEntry> scratch_;
  /// Freshest destination sequence seen per destination (from accepted
  /// adverts — every node stamps its own entry with its even own_seq_, so
  /// this is the destination's clock as it propagates outward); 0 until
  /// one is seen.
  std::vector<std::uint32_t> dst_seqs_;
  /// Indexed by destination; `active_kills_` counts the active ones.
  std::vector<Kill> kills_;
  std::size_t active_kills_ = 0;
  std::uint32_t own_seq_ = 0;
  /// Dijkstra output, indexed by destination; `reached_` lists the ids
  /// with a finite route (sorted by fill_beacon, reset by the next run).
  mutable std::vector<Route> routes_;
  mutable std::vector<net::NodeId> reached_;
  mutable std::vector<std::pair<double, net::NodeId>> frontier_;
  mutable bool routes_dirty_ = true;
};

}  // namespace vanet::routing
