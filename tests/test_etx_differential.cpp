// Differential test for routing::EtxAgent: the id-indexed production agent
// against the map-based reference oracle (util/etx_reference_agent.h).
// Seeded random input sequences drive both through the same steps — hellos
// with link reports and distance vectors (poisoned entries, odd and stale
// sequences, self-entries, out-of-order beacon seqs), neighbor loss and
// re-admission, over sparse ids up to ~2000 — and after every step the two
// must emit identical beacons (links, routes, kill entries, byte count) and
// agree on next_hop / distance_to for every id. The id guard and the growth
// path have their own unit tests at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.h"
#include "net/hello.h"
#include "routing/linkquality/etx_agent.h"
#include "util/etx_reference_agent.h"

namespace vanet::routing {
namespace {

constexpr double kMaxEtx = LinkQualityTable::kMaxEtx;

net::Packet hello_from(net::NodeId origin) {
  net::Packet p;
  p.kind = net::PacketKind::kHello;
  p.origin = origin;
  p.tx = origin;
  return p;
}

/// One random world: a sparse id pool, per-origin beacon counters and
/// per-destination sequence clocks the generated adverts are stamped from.
class RandomWorld {
 public:
  RandomWorld(std::uint64_t seed, std::size_t pool_size, net::NodeId max_id)
      : rng_{seed} {
    while (ids_.size() < pool_size) {
      const auto id = static_cast<net::NodeId>(rng_.uniform_int(0, max_id));
      if (std::find(ids_.begin(), ids_.end(), id) == ids_.end()) {
        ids_.push_back(id);
      }
    }
    self_ = ids_.front();
  }

  net::NodeId self() const { return self_; }
  net::NodeId max_id() const { return *std::max_element(ids_.begin(), ids_.end()); }
  core::Rng& rng() { return rng_; }

  net::NodeId any_id() {
    return ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1))];
  }
  net::NodeId other_id() {
    for (;;) {
      const net::NodeId id = any_id();
      if (id != self_) return id;
    }
  }

  /// A beacon from `origin`: mostly the next seq (with losses), sometimes
  /// a repeat or an out-of-order old one.
  net::HelloHeader beacon(net::NodeId origin) {
    net::HelloHeader h;
    std::uint32_t& next = beacon_seq_[origin];
    const double roll = rng_.uniform(0.0, 1.0);
    if (roll < 0.1 && next > 0) {
      h.seq = next - 1 - static_cast<std::uint32_t>(rng_.uniform_int(
                             0, std::min<std::int64_t>(next - 1, 6)));
    } else {
      next += static_cast<std::uint32_t>(rng_.uniform_int(0, 2));
      h.seq = next++;
    }
    // Link reports: a handful of ids, usually including us.
    const auto links = rng_.uniform_int(0, 6);
    for (std::int64_t i = 0; i < links; ++i) {
      h.links.push_back({any_id(), rng_.uniform(0.0, 1.0)});
    }
    if (rng_.bernoulli(0.8)) {
      const double ratio =
          rng_.bernoulli(0.1) ? 0.0 : rng_.uniform(0.3, 1.0);
      const auto at = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(h.links.size())));
      h.links.insert(h.links.begin() + static_cast<std::ptrdiff_t>(at),
                     {self_, ratio});
    }
    // Distance vector: the origin's own even-sequenced entry, then random
    // destinations (self included) — valid, stale, odd, or poisoned.
    std::uint32_t& own = clock_[origin];
    own += 2;
    h.routes.emplace_back(origin, 0.0, own);
    const auto routes = rng_.uniform_int(0, 24);
    for (std::int64_t i = 0; i < routes; ++i) {
      const net::NodeId dst = any_id();
      std::uint32_t& clock = clock_[dst];
      if (rng_.bernoulli(0.3)) clock += 2;
      const double kind = rng_.uniform(0.0, 1.0);
      if (kind < 0.12) {
        // Poisoned: one past the clock (a fresh invalidation), or stale.
        const std::uint32_t seq =
            rng_.bernoulli(0.7) ? clock + 1
                                : clock - std::min<std::uint32_t>(clock, 3);
        h.routes.emplace_back(dst,
                              rng_.bernoulli(0.5) ? kMaxEtx : kMaxEtx + 7.0,
                              seq);
      } else {
        std::uint32_t seq = clock;
        if (kind < 0.3) seq -= std::min<std::uint32_t>(clock, 2);  // stale
        if (kind > 0.9) seq += 1;                                  // odd
        // Integer-valued and fractional costs: exact ties exercise the
        // (cost, id) order and the strict relaxation.
        const double dist = rng_.bernoulli(0.4)
                                ? static_cast<double>(rng_.uniform_int(1, 6))
                                : rng_.uniform(0.1, 40.0);
        h.routes.emplace_back(dst, dist, seq);
      }
    }
    return h;
  }

 private:
  core::Rng rng_;
  std::vector<net::NodeId> ids_;
  net::NodeId self_ = 0;
  std::map<net::NodeId, std::uint32_t> beacon_seq_;
  std::map<net::NodeId, std::uint32_t> clock_;
};

struct Coverage {
  int kills_held = 0;        ///< steps ending with at least one active kill
  int kill_entries = 0;      ///< poisoned entries emitted in beacons
  int multi_hop_routes = 0;  ///< routes whose first hop is not the dst
};

/// Both agents' next beacons, compared field by field.
void expect_same_beacon(EtxAgent& agent, testing::ReferenceEtxAgent& oracle,
                        int step, Coverage& cov) {
  net::HelloHeader got;
  net::HelloHeader want;
  const std::size_t got_bytes = agent.fill_beacon(got);
  const std::size_t want_bytes = oracle.fill_beacon(want);
  ASSERT_EQ(got_bytes, want_bytes) << "step " << step;
  ASSERT_EQ(got.links.size(), want.links.size()) << "step " << step;
  for (std::size_t i = 0; i < got.links.size(); ++i) {
    EXPECT_EQ(got.links[i].neighbor, want.links[i].neighbor) << "step " << step;
    EXPECT_EQ(got.links[i].ratio, want.links[i].ratio) << "step " << step;
  }
  ASSERT_EQ(got.routes.size(), want.routes.size()) << "step " << step;
  for (std::size_t i = 0; i < got.routes.size(); ++i) {
    EXPECT_EQ(got.routes[i].dst, want.routes[i].dst) << "step " << step;
    EXPECT_EQ(got.routes[i].dist, want.routes[i].dist) << "step " << step;
    EXPECT_EQ(got.routes[i].seq, want.routes[i].seq) << "step " << step;
    if (got.routes[i].dist >= kMaxEtx) ++cov.kill_entries;
  }
}

void expect_same_routes(const EtxAgent& agent,
                        const testing::ReferenceEtxAgent& oracle,
                        net::NodeId max_id, int step, Coverage& cov) {
  bool any_kill = false;
  for (net::NodeId id = 0; id <= max_id + 2; ++id) {
    const auto hop = agent.next_hop(id);
    ASSERT_EQ(hop, oracle.next_hop(id)) << "step " << step << " dst " << id;
    ASSERT_EQ(agent.distance_to(id), oracle.distance_to(id))
        << "step " << step << " dst " << id;
    ASSERT_EQ(agent.has_adverts_from(id), oracle.has_adverts_from(id))
        << "step " << step << " id " << id;
    ASSERT_EQ(agent.has_kill_for(id), oracle.has_kill_for(id))
        << "step " << step << " id " << id;
    if (hop && *hop != id) ++cov.multi_hop_routes;
    any_kill = any_kill || agent.has_kill_for(id);
  }
  if (any_kill) ++cov.kills_held;
}

class EtxDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtxDifferential, MatchesMapBasedReferenceAfterEveryStep) {
  RandomWorld world{GetParam(), 48, 2000};
  EtxAgent agent{world.self(), {}};
  testing::ReferenceEtxAgent oracle{world.self(), {}};
  Coverage cov;
  std::vector<net::NodeId> lost;
  for (int step = 0; step < 400; ++step) {
    const double action = world.rng().uniform(0.0, 1.0);
    if (action < 0.78) {
      const net::NodeId origin = world.other_id();
      const net::HelloHeader h = world.beacon(origin);
      agent.on_hello(hello_from(origin), h);
      oracle.on_hello(hello_from(origin), h);
    } else if (action < 0.9) {
      // Loss of a (usually) known neighbor — or of an id never heard.
      const net::NodeId gone = world.other_id();
      agent.on_neighbor_lost(gone);
      oracle.on_neighbor_lost(gone);
      lost.push_back(gone);
    } else if (!lost.empty()) {
      // Re-admission: a lost neighbor beacons again.
      const net::NodeId back = lost[static_cast<std::size_t>(
          world.rng().uniform_int(0, static_cast<std::int64_t>(lost.size()) - 1))];
      const net::HelloHeader h = world.beacon(back);
      agent.on_hello(hello_from(back), h);
      oracle.on_hello(hello_from(back), h);
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_same_routes(agent, oracle, world.max_id(), step, cov));
    ASSERT_EQ(agent.table().neighbors(), oracle.table().neighbors());
    ASSERT_NO_FATAL_FAILURE(expect_same_beacon(agent, oracle, step, cov));
  }
  // The sequences must actually reach the interesting paths.
  EXPECT_GT(cov.kills_held, 0);
  EXPECT_GT(cov.kill_entries, 0);
  EXPECT_GT(cov.multi_hop_routes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtxDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ------------------------------------------------------------- id guard ---

TEST(EtxAgentIds, AdvertFarPastAnySeenIdGrowsTheTables) {
  EtxAgent agent{0, {}};
  constexpr net::NodeId kFar = 1'000'000;
  net::HelloHeader h;
  h.links.push_back({0, 1.0});
  h.routes.emplace_back(1, 0.0, 2);
  h.routes.emplace_back(kFar, 3.0, 8);
  agent.on_hello(hello_from(1), h);
  ASSERT_TRUE(agent.next_hop(kFar).has_value());
  EXPECT_EQ(*agent.next_hop(kFar), 1u);
  EXPECT_DOUBLE_EQ(agent.distance_to(kFar), 4.0);  // link ETX 1 + advert 3
  // Ids past the grown range are simply unknown.
  EXPECT_FALSE(agent.next_hop(kFar + 1).has_value());
  EXPECT_DOUBLE_EQ(agent.distance_to(kFar + 1), kMaxEtx);
  // The far destination re-advertises with its sequence.
  net::HelloHeader out;
  agent.fill_beacon(out);
  ASSERT_EQ(out.routes.size(), 3u);
  EXPECT_EQ(out.routes.back().dst, kFar);
  EXPECT_EQ(out.routes.back().seq, 8u);
}

TEST(EtxAgentIds, BroadcastIdIsNeverANode) {
  // Growing the id-indexed tables to the broadcast address would try to
  // allocate 2^32 slots; the agent refuses it as origin and as advert dst.
  const auto intake = [](net::NodeId origin, net::NodeId dst) {
    EtxAgent agent{0, EtxConfig{}};
    net::HelloHeader h;
    h.routes.emplace_back(dst, 1.0, 2);
    agent.on_hello(hello_from(origin), h);
  };
  EXPECT_DEATH(intake(1, net::kBroadcastId), "broadcast");
  EXPECT_DEATH(intake(net::kBroadcastId, 1), "broadcast");
}

}  // namespace
}  // namespace vanet::routing
