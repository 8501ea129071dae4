// Link-quality family (routing/linkquality/): estimator unit tests with
// exact window arithmetic, adversarial cases (asymmetric links, neighbor
// churn, re-admission), the EtxAgent route layer, the Nakagami convergence
// property test against net/fading's closed-form receipt probability, and
// the determinism contracts (jobs=1 == jobs=4 byte-identity for an etx
// sweep, suppression accounting in the ScenarioReport).
#include "routing/linkquality/link_quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "mobility/constant_velocity.h"
#include "net/fading.h"
#include "net/hello.h"
#include "routing/linkquality/etx.h"
#include "routing/linkquality/etx_agent.h"
#include "sim/experiment.h"
#include "sim/report_sink.h"
#include "sim/scenario.h"

namespace vanet::routing {
namespace {

// ------------------------------------------------------ estimator window ---

TEST(LinkQuality, ExactlyKOfNHellosGivesRatioKOverN) {
  // The window-boundary contract: with the sender heard from its seq 0, the
  // denominator is exactly min(window, beacons sent), so k received of n
  // sent is k/n with no off-by-one. 4 of 5:
  LinkQualityTable t{{16, 1.0}};
  for (std::uint32_t seq : {0u, 1u, 3u, 4u}) t.on_hello(7, seq);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(7), 4.0 / 5.0);
  // Hearing the missing beacon late (out of order) completes the window.
  t.on_hello(7, 2);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(7), 1.0);
}

TEST(LinkQuality, DenominatorRampsThenClampsAtWindow) {
  LinkQualityTable t{{4, 1.0}};
  t.on_hello(3, 0);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 1.0);  // 1 of 1
  t.on_hello(3, 2);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 2.0 / 3.0);  // missed seq 1
  // Beyond the window the denominator stays n=4: after seq 7 the window
  // covers 4..7 and only seq 7 was heard.
  t.on_hello(3, 7);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 1.0 / 4.0);
}

TEST(LinkQuality, GapLongerThanTheMaskDropsAllHistory) {
  LinkQualityTable t{{16, 1.0}};
  for (std::uint32_t seq = 0; seq < 16; ++seq) t.on_hello(1, seq);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(1), 1.0);
  t.on_hello(1, 200);  // 184-beacon silence: only the newest bit survives
  EXPECT_DOUBLE_EQ(t.reverse_ratio(1), 1.0 / 16.0);
}

TEST(LinkQuality, ReAdmissionRebasesTheRatioBaseline) {
  // Erase (hello expiry / unicast failure) then re-admission mid-stream:
  // beacons sent while the entry did not exist are not held against the
  // link — the fresh entry starts from a clean baseline at the new seq.
  LinkQualityTable t{{16, 1.0}};
  for (std::uint32_t seq : {0u, 1u, 2u, 3u}) t.on_hello(5, seq);
  t.erase(5);
  EXPECT_FALSE(t.contains(5));
  t.on_hello(5, 50);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(5), 1.0);
  EXPECT_DOUBLE_EQ(t.long_run_ratio(5), 1.0);
  t.on_hello(5, 52);  // one miss since re-admission
  EXPECT_DOUBLE_EQ(t.reverse_ratio(5), 2.0 / 3.0);
}

TEST(LinkQuality, EwmaWeightSmoothsAcrossWindows) {
  LinkQualityTable t{{4, 0.5}};
  t.on_hello(9, 0);  // first sample seeds the EWMA: 1.0
  EXPECT_DOUBLE_EQ(t.reverse_ratio(9), 1.0);
  t.on_hello(9, 3);  // windowed ratio now 2/4; smoothed = .5*.5 + .5*1
  EXPECT_DOUBLE_EQ(t.reverse_ratio(9), 0.75);
}

// -------------------------------------------------- asymmetry and bounds ---

TEST(LinkQuality, AsymmetricLinkMultipliesBothDirections) {
  // Reverse direction clean (every beacon heard), forward direction lossy
  // (the neighbor reports it receives only a quarter of ours):
  // ETX = 1/(0.25 * 1.0) = 4, exactly.
  LinkQualityTable t{{8, 1.0}};
  for (std::uint32_t seq = 0; seq < 8; ++seq) t.on_hello(2, seq);
  EXPECT_DOUBLE_EQ(t.forward_ratio(2), 1.0);  // optimistic until a report
  t.on_report(2, 0.25);
  EXPECT_DOUBLE_EQ(t.forward_ratio(2), 0.25);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(2), 1.0);
  EXPECT_DOUBLE_EQ(t.etx(2), 4.0);
}

TEST(LinkQuality, UnknownAndDeadLinksClampToMaxEtx) {
  LinkQualityTable t;
  EXPECT_DOUBLE_EQ(t.etx(99), LinkQualityTable::kMaxEtx);
  t.on_hello(4, 0);
  t.on_report(4, 0.0);  // reported fully lossy forward direction
  EXPECT_DOUBLE_EQ(t.etx(4), LinkQualityTable::kMaxEtx);
}

TEST(LinkQuality, NeighborsAreSortedById) {
  LinkQualityTable t;
  for (net::NodeId id : {9u, 3u, 7u, 1u}) t.on_hello(id, 0);
  EXPECT_EQ(t.neighbors(), (std::vector<net::NodeId>{1, 3, 7, 9}));
}

// -------------------------------------------------------------- EtxAgent ---

net::Packet hello_from(net::NodeId origin) {
  net::Packet p;
  p.kind = net::PacketKind::kHello;
  p.origin = origin;
  p.tx = origin;
  return p;
}

TEST(EtxAgent, RoutesThroughAdvertsAndDropsThemWithTheNeighbor) {
  EtxAgent agent{0, {}};
  // Neighbor 1, clean link both ways, advertising a route to 2 at cost 1.
  net::HelloHeader h;
  h.seq = 0;
  h.links.push_back({0, 1.0});
  h.routes.push_back({1, 0.0, 2});
  h.routes.push_back({2, 1.0, 4});
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    h.seq = seq;
    agent.on_hello(hello_from(1), h);
  }
  ASSERT_TRUE(agent.next_hop(2).has_value());
  EXPECT_EQ(*agent.next_hop(2), 1u);
  EXPECT_DOUBLE_EQ(agent.distance_to(2), 2.0);  // link ETX 1 + advert 1
  EXPECT_DOUBLE_EQ(agent.distance_to(0), 0.0);
  EXPECT_TRUE(agent.has_adverts_from(1));

  // The neighbor dies: its link AND its adverts go with it — no dangling
  // ETX edges through a crashed node.
  agent.on_neighbor_lost(1);
  EXPECT_FALSE(agent.table().contains(1));
  EXPECT_FALSE(agent.has_adverts_from(1));
  EXPECT_FALSE(agent.next_hop(2).has_value());
  EXPECT_DOUBLE_EQ(agent.distance_to(2), LinkQualityTable::kMaxEtx);
}

TEST(EtxAgent, PrefersReliableTwoHopOverLossyDirect) {
  // Direct link to 2 at ratio 1/4 (ETX 16 after the neighbor's matching
  // report) vs a clean two-hop detour through 1 (ETX 2): Dijkstra must take
  // the detour — the whole point of the metric.
  EtxAgent agent{0, {}};
  net::HelloHeader via;
  via.links.push_back({0, 1.0});
  via.routes.push_back({1, 0.0, 2});
  via.routes.push_back({2, 1.0, 4});
  net::HelloHeader direct;
  direct.links.push_back({0, 0.25});
  direct.routes.push_back({2, 0.0, 4});
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    via.seq = seq;
    agent.on_hello(hello_from(1), via);
    if (seq % 4 == 0) {  // 2's beacons mostly lost: reverse ratio 2/8
      direct.seq = seq;
      agent.on_hello(hello_from(2), direct);
    }
  }
  ASSERT_TRUE(agent.next_hop(2).has_value());
  EXPECT_EQ(*agent.next_hop(2), 1u);
  EXPECT_LT(agent.distance_to(2), agent.table().etx(2));
}

TEST(EtxAgent, BeaconCarriesLinkReportsAndDistanceVector) {
  EtxAgent agent{0, {}};
  net::HelloHeader in;
  in.links.push_back({0, 1.0});
  in.routes.push_back({1, 0.0, 2});
  in.routes.push_back({7, 2.0, 6});
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    in.seq = seq;
    agent.on_hello(hello_from(1), in);
  }
  net::HelloHeader out;
  const std::size_t extra = agent.fill_beacon(out);
  ASSERT_EQ(out.links.size(), 1u);
  EXPECT_EQ(out.links[0].neighbor, 1u);
  EXPECT_DOUBLE_EQ(out.links[0].ratio, 1.0);
  // Distance vector: self at 0, neighbor 1, advertised 7 — all reachable.
  ASSERT_EQ(out.routes.size(), 3u);
  EXPECT_EQ(out.routes[0].dst, 0u);
  EXPECT_DOUBLE_EQ(out.routes[0].dist, 0.0);
  EXPECT_GT(extra, 0u);
}

// ----------------------------------------- Nakagami convergence property ---

/// Two stationary vehicles at `distance` under Nakagami-m fading, hello
/// beacons only, expiry disabled so the estimator is isolated from the
/// aging path (aging has its own tests above and the churn test below).
struct ConvergenceFixture {
  core::Simulator sim;
  core::RngManager rngs;
  std::unique_ptr<mobility::MobilityManager> mgr;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::HelloService> hello;
  EtxAgent agent{0, {}};

  ConvergenceFixture(double distance, int m, std::uint64_t seed)
      : rngs{seed} {
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);
    model->add_vehicle({distance, 0.0}, {1.0, 0.0}, 0.0);
    mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                      rngs.stream("m"));
    net = std::make_unique<net::Network>(
        sim, mgr.get(), std::make_unique<net::NakagamiFadingModel>(
                            analysis::LogNormalParams{}, m),
        rngs.stream("net"));
    net->add_vehicle_node(0);
    net->add_vehicle_node(1);
    net::HelloConfig cfg;
    cfg.expiry = core::SimTime::seconds(1e9);  // no aging in this fixture
    hello = std::make_unique<net::HelloService>(*net, rngs.stream("hello"),
                                                cfg);
    for (net::NodeId id : net->node_ids()) {
      net->set_receive_handler(id, [this, id](const net::Packet& p) {
        if (p.kind == net::PacketKind::kHello) hello->on_frame(id, p);
      });
    }
    agent.attach(*hello);
  }
};

struct ConvergenceCase {
  double distance;
  int m;
};

class EtxConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(EtxConvergence, LongRunRatioMatchesClosedFormReceiptProbability) {
  const auto [distance, m] = GetParam();
  constexpr double kDurationS = 400.0;
  const auto seed = static_cast<std::uint64_t>(1000 + 10 * distance + m);
  ConvergenceFixture f{distance, m, seed};
  f.mgr->start();
  f.hello->start();
  f.sim.run_until(core::SimTime::seconds(kDurationS));

  const double p = f.net->propagation().receipt_probability(distance);
  ASSERT_GT(p, 0.05) << "degenerate case: pick a closer distance";
  const double est = f.agent.table().long_run_ratio(1);
  ASSERT_GT(est, 0.0) << "no beacon from the neighbor ever decoded";
  // Seeded binomial confidence interval: ~kDurationS Bernoulli(p) beacons
  // (1 Hz, minus jitter slack), the first decoded one counted by
  // construction. 4 sigma + the first-contact bias keeps the fixed-seed
  // flake probability negligible without hiding real estimator bugs.
  const double n = 0.9 * kDurationS;
  const double tolerance = 4.0 * std::sqrt(p * (1.0 - p) / n) + 2.0 / n;
  EXPECT_NEAR(est, p, tolerance)
      << "distance=" << distance << " m=" << m << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    DistancesAndShapes, EtxConvergence,
    ::testing::Values(ConvergenceCase{60.0, 1}, ConvergenceCase{100.0, 1},
                      ConvergenceCase{140.0, 1}, ConvergenceCase{60.0, 3},
                      ConvergenceCase{100.0, 3}, ConvergenceCase{140.0, 3}),
    [](const ::testing::TestParamInfo<ConvergenceCase>& tpi) {
      return "d" + std::to_string(static_cast<int>(tpi.param.distance)) +
             "_m" + std::to_string(tpi.param.m);
    });

// --------------------------------------------------- scenario-level churn ---

TEST(EtxScenario, NodeOutageLeavesNoDanglingEstimatorState) {
  // Planned outage without restart: after the hello expiry plus a few beacon
  // rounds, no surviving node may hold a link, an advert set, or a route
  // toward the dead node — the soft-state discipline end-to-end.
  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.duration_s = 12.0;
  cfg.mobility = sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 4;
  cfg.manhattan.streets_y = 4;
  cfg.manhattan.block = 120.0;
  cfg.vehicles = 12;
  cfg.protocol = "etx";
  cfg.fault.enabled = true;
  cfg.fault.plan = "node:2:3";  // down at t=3, never restarts
  cfg.traffic.flows = 4;
  cfg.traffic.stop_s = 12.0;
  sim::Scenario s{cfg};
  s.run();

  for (net::NodeId id = 0; id < 12; ++id) {
    if (id == 2) continue;
    auto* etx = dynamic_cast<EtxProtocol*>(&s.protocol_at(id));
    ASSERT_NE(etx, nullptr);
    EXPECT_FALSE(etx->agent().table().contains(2)) << "node " << id;
    EXPECT_FALSE(etx->agent().has_adverts_from(2)) << "node " << id;
    EXPECT_FALSE(etx->agent().next_hop(2).has_value()) << "node " << id;
  }
  const sim::ScenarioReport r = s.report();
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_TRUE(r.linkquality.has_value());
  EXPECT_EQ(r.fault->node_outages, 1u);
}

// ------------------------------------------------------ flood suppression ---

sim::ScenarioConfig flooding_city() {
  sim::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration_s = 10.0;
  cfg.mobility = sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 5;
  cfg.manhattan.streets_y = 5;
  cfg.manhattan.block = 120.0;
  cfg.vehicles = 25;
  cfg.protocol = "flooding";
  cfg.traffic.flows = 6;
  cfg.traffic.stop_s = 10.0;
  return cfg;
}

TEST(FloodSuppressionTest, EtxModeCancelsRebroadcastsAndReportsThem) {
  sim::ScenarioConfig base = flooding_city();
  sim::Scenario plain{base};
  plain.run();
  const sim::ScenarioReport rp = plain.report();
  EXPECT_FALSE(rp.linkquality.has_value());

  sim::ScenarioConfig sup = flooding_city();
  sup.flood_suppression = FloodSuppression::kEtx;
  sim::Scenario coordinated{sup};
  coordinated.run();
  const sim::ScenarioReport rs = coordinated.report();
  ASSERT_TRUE(rs.linkquality.has_value());
  EXPECT_GT(rs.linkquality->suppressed_rebroadcasts, 0u);
  // Every cancelled rebroadcast is a data frame that never hit the air.
  EXPECT_LT(rs.data_frames, rp.data_frames);
  // Coordination must not cost delivery on a clean channel.
  EXPECT_GE(rs.delivered + 2, rp.delivered);
}

TEST(FloodSuppressionTest, BiswasComposesSuppressionWithImplicitAcks) {
  sim::ScenarioConfig cfg = flooding_city();
  cfg.protocol = "biswas";
  cfg.flood_suppression = FloodSuppression::kEtx;
  sim::Scenario s{cfg};
  s.run();
  const sim::ScenarioReport r = s.report();
  ASSERT_TRUE(r.linkquality.has_value());
  EXPECT_GT(r.linkquality->suppressed_rebroadcasts, 0u);
  EXPECT_GT(r.delivered, 0u);
}

// ------------------------------------------------------------ determinism ---

TEST(EtxScenario, SweepIsByteIdenticalAcrossWorkerCounts) {
  // jobs=1 == jobs=4 for an etx sweep under fast fading: the estimator, the
  // piggyback and the suppression jitter all ride per-run streams, so worker
  // scheduling cannot perturb them.
  sim::ExperimentSpec spec;
  spec.base.duration_s = 8.0;
  spec.base.mobility = sim::MobilityKind::kManhattan;
  spec.base.manhattan.streets_x = 5;
  spec.base.manhattan.streets_y = 5;
  spec.base.manhattan.block = 120.0;
  spec.base.vehicles = 20;
  spec.base.phy = sim::PhyModel::kNakagami;
  spec.base.nakagami_m = 1;
  spec.base.traffic.flows = 6;
  spec.base.traffic.stop_s = 8.0;
  spec.protocols = {"etx"};
  spec.seeds = {1, 2};

  std::ostringstream serial, parallel;
  sim::JsonlSink serial_sink{serial, /*include_runs=*/true};
  sim::JsonlSink parallel_sink{parallel, /*include_runs=*/true};
  sim::ExperimentEngine{1}.run(spec, serial_sink);
  sim::ExperimentEngine{4}.run(spec, parallel_sink);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_NE(serial.str().find("\"protocol\":\"etx\""), std::string::npos);
}

}  // namespace
}  // namespace vanet::routing
