// Reference oracle for routing::EtxAgent: the original map-based
// implementation, kept verbatim in behaviour so the differential test
// (test_etx_differential.cpp) can drive it and the id-indexed production
// agent through the same seeded input sequences and demand identical
// beacons and routes after every step. It is deliberately the slow,
// obviously-correct version: ordered maps everywhere, routes rebuilt from
// scratch, no storage reuse. Never link it into src/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "net/hello.h"
#include "routing/linkquality/link_quality.h"

namespace vanet::testing {

class ReferenceEtxAgent {
 public:
  ReferenceEtxAgent(net::NodeId self, routing::EtxConfig cfg)
      : self_{self}, table_{cfg} {}

  std::size_t fill_beacon(net::HelloHeader& h);
  void on_hello(const net::Packet& p, const net::HelloHeader& h);
  void on_neighbor_lost(net::NodeId lost);

  std::optional<net::NodeId> next_hop(net::NodeId dst) const;
  double distance_to(net::NodeId dst) const;

  const routing::LinkQualityTable& table() const { return table_; }
  bool has_adverts_from(net::NodeId from) const {
    return adverts_.contains(from);
  }
  bool has_kill_for(net::NodeId dst) const { return kills_.contains(dst); }

 private:
  static constexpr double kMaxEtx = routing::LinkQualityTable::kMaxEtx;
  static constexpr std::size_t kLinkEntryBytes = 6;
  static constexpr std::size_t kRouteEntryBytes = 10;
  static constexpr int kKillBeacons = 3;

  struct Route {
    double dist = kMaxEtx;
    net::NodeId first_hop = 0;
    std::uint32_t seq = 0;
  };
  struct Kill {
    std::uint32_t seq = 0;
    int beacons_left = 0;
  };

  void compute_routes() const;

  net::NodeId self_;
  routing::LinkQualityTable table_;
  std::map<net::NodeId, std::vector<net::HelloRouteEntry>> adverts_;
  std::map<net::NodeId, std::uint32_t> dst_seqs_;
  std::map<net::NodeId, Kill> kills_;
  std::uint32_t own_seq_ = 0;
  mutable std::map<net::NodeId, Route> routes_;
  mutable bool routes_dirty_ = true;
};

inline std::size_t ReferenceEtxAgent::fill_beacon(net::HelloHeader& h) {
  const std::vector<net::NodeId> nbrs = table_.neighbors();
  h.links.reserve(nbrs.size());
  for (const net::NodeId n : nbrs) {
    h.links.push_back({n, table_.reverse_ratio(n)});
  }
  own_seq_ += 2;
  compute_routes();
  h.routes.reserve(routes_.size() + kills_.size() + 1);
  h.routes.push_back({self_, 0.0, own_seq_});
  for (const auto& [dst, route] : routes_) {
    if (route.dist >= kMaxEtx) continue;
    const auto seq = dst_seqs_.find(dst);
    h.routes.push_back(
        {dst, route.dist, seq != dst_seqs_.end() ? seq->second : route.seq});
  }
  for (auto& [dst, kill] : kills_) {
    if (kill.beacons_left <= 0) continue;
    --kill.beacons_left;
    h.routes.push_back({dst, kMaxEtx, kill.seq});
  }
  return kLinkEntryBytes * h.links.size() + kRouteEntryBytes * h.routes.size();
}

inline void ReferenceEtxAgent::on_hello(const net::Packet& p,
                                        const net::HelloHeader& h) {
  table_.on_hello(p.origin, h.seq);
  for (const auto& link : h.links) {
    if (link.neighbor == self_) {
      table_.on_report(p.origin, link.ratio);
      break;
    }
  }
  auto& slot = adverts_[p.origin];
  slot.clear();
  slot.reserve(h.routes.size());
  for (const auto& advert : h.routes) {
    if (advert.dst == self_) continue;
    if (advert.dist >= kMaxEtx) {
      const auto seq = dst_seqs_.find(advert.dst);
      const std::uint32_t known = seq != dst_seqs_.end() ? seq->second : 0;
      auto [kill, fresh] =
          kills_.try_emplace(advert.dst, Kill{advert.seq, kKillBeacons});
      if (!fresh && advert.seq > kill->second.seq) {
        kill->second = Kill{advert.seq, kKillBeacons};
      }
      if (kill->second.seq <= known) kills_.erase(kill);
      continue;
    }
    const auto kill = kills_.find(advert.dst);
    if (kill != kills_.end()) {
      if (advert.seq <= kill->second.seq) continue;
      kills_.erase(kill);
    }
    auto [seq, fresh] = dst_seqs_.try_emplace(advert.dst, advert.seq);
    if (!fresh && advert.seq > seq->second) seq->second = advert.seq;
    slot.push_back(advert);
  }
  routes_dirty_ = true;
}

inline void ReferenceEtxAgent::on_neighbor_lost(net::NodeId lost) {
  table_.erase(lost);
  adverts_.erase(lost);
  const auto seq = dst_seqs_.find(lost);
  const std::uint32_t poison =
      (seq != dst_seqs_.end() ? seq->second : 0) + 1;
  auto [kill, fresh] = kills_.try_emplace(lost, Kill{poison, kKillBeacons});
  if (!fresh && poison > kill->second.seq) {
    kill->second = Kill{poison, kKillBeacons};
  }
  routes_dirty_ = true;
}

inline void ReferenceEtxAgent::compute_routes() const {
  if (!routes_dirty_) return;
  routes_dirty_ = false;
  routes_.clear();

  using QueueEntry = std::pair<double, net::NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  for (const net::NodeId n : table_.neighbors()) {
    const double cost = table_.etx(n);
    if (cost >= kMaxEtx) continue;
    auto [it, fresh] = routes_.try_emplace(n);
    if (fresh || cost < it->second.dist) {
      it->second = Route{cost, n, 0};
      frontier.push({cost, n});
    }
  }
  while (!frontier.empty()) {
    const auto [cost, node] = frontier.top();
    frontier.pop();
    const auto settled = routes_.find(node);
    if (settled == routes_.end() || cost > settled->second.dist) continue;
    const auto adverts = adverts_.find(node);
    if (adverts == adverts_.end()) continue;
    const net::NodeId first_hop = settled->second.first_hop;
    for (const auto& advert : adverts->second) {
      const auto kill = kills_.find(advert.dst);
      if (kill != kills_.end() && advert.seq <= kill->second.seq) continue;
      const double total = cost + advert.dist;
      if (total >= kMaxEtx) continue;
      auto [it, fresh] = routes_.try_emplace(advert.dst);
      if (fresh || total < it->second.dist) {
        it->second = Route{total, first_hop, advert.seq};
        frontier.push({total, advert.dst});
      }
    }
  }
}

inline std::optional<net::NodeId> ReferenceEtxAgent::next_hop(
    net::NodeId dst) const {
  compute_routes();
  const auto it = routes_.find(dst);
  if (it == routes_.end() || it->second.dist >= kMaxEtx) return std::nullopt;
  return it->second.first_hop;
}

inline double ReferenceEtxAgent::distance_to(net::NodeId dst) const {
  if (dst == self_) return 0.0;
  compute_routes();
  const auto it = routes_.find(dst);
  if (it == routes_.end()) return kMaxEtx;
  return std::min(it->second.dist, kMaxEtx);
}

}  // namespace vanet::testing
