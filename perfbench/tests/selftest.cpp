// Self-tests for the benchmark harness: statistics, output checks and the
// traced run's attribution.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, UsesP90WhenTenSamplesLieBeyondIt) {
  const Percentile p = tail_percentile(one_to(100), 0.90);
  EXPECT_DOUBLE_EQ(p.q, 0.90);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.samples, 100u);
}

TEST(TailPercentile, StepsDownWhenTheCapHasTooFewBeyond) {
  // 99 samples: p90 sits at rank 90 with only 9 beyond, so p75 is used.
  const Percentile p = tail_percentile(one_to(99), 0.90);
  EXPECT_DOUBLE_EQ(p.q, 0.75);
  EXPECT_DOUBLE_EQ(p.value, 75.0);
  EXPECT_EQ(p.beyond, 24u);
}

TEST(TailPercentile, HigherCapReachesP99OnLargeSets) {
  const Percentile p = tail_percentile(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(TailPercentile, FallsBackToTheMedianOnSmallSets) {
  const Percentile p = tail_percentile({5.0, 1.0, 3.0, 2.0}, 0.90);
  EXPECT_DOUBLE_EQ(p.q, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 2.5);
  EXPECT_LT(p.beyond, 10u);
  EXPECT_EQ(tail_percentile({}, 0.9).samples, 0u);
}

TEST(WorkerBusyFrac, IsRunWallOverPoolCapacity) {
  EXPECT_DOUBLE_EQ(worker_busy_frac({1.0, 1.0, 2.0}, 2, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(worker_busy_frac({1.0}, 4, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(worker_busy_frac({1.0}, 4, 0.0), 0.0);
}

TEST(BestTimes, KeepsEachInputsFastestTiming) {
  BestTimes t;
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  t.add(0, 3.0);
  t.add(1, 2.0);
  t.add(0, 1.0);
  t.add(1, 5.0);
  ASSERT_EQ(t.best().size(), 2u);
  EXPECT_DOUBLE_EQ(t.best()[0], 1.0);
  EXPECT_DOUBLE_EQ(t.best()[1], 2.0);
  EXPECT_DOUBLE_EQ(t.sum(), 3.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.5);
}

TEST(Ledger, DigestMismatchAgainstThePinRaisesFailedFrac) {
  Ledger ledger{{{"w", Pin{"aaaa", 10}}}, /*pinned_seed=*/true};
  EXPECT_TRUE(ledger.check({"w", "aaaa", 10, 5, 4, ""}));
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.0);
  EXPECT_FALSE(ledger.check({"w", "bbbb", 10, 5, 4, ""}));
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 0.5);
  EXPECT_FALSE(ledger.check({"w", "aaaa", 11, 5, 4, ""}));  // events differ
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.attempted(), 3u);
}

TEST(Ledger, PinsApplyOnlyAtThePinnedSeed) {
  Ledger ledger{{{"w", Pin{"aaaa", 10}}}, /*pinned_seed=*/false};
  EXPECT_TRUE(ledger.check({"w", "bbbb", 99, 5, 4, ""}));
  // ...but every later run of the same key must reproduce the first.
  EXPECT_FALSE(ledger.check({"w", "cccc", 99, 5, 4, ""}));
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST(Ledger, CountsErrorsAndOverDelivery) {
  Ledger ledger{{}, true};
  EXPECT_FALSE(ledger.check({"a", "", 0, 0, 0, "exception: boom"}));
  EXPECT_FALSE(ledger.check({"b", "d", 1, 3, 4, ""}));
  EXPECT_TRUE(ledger.check({"c", "d", 1, 4, 4, ""}));
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_EQ(ledger.attempted(), 3u);
}

TEST(Json, HoldsExactlyTheContractKeys) {
  Ledger ledger{{}, true};
  ledger.check({"a", "d", 1, 1, 1, ""});
  const std::string json =
      format_json({{"run_s", "s", 1.5, 3, ""}, {"setup_s", "s", 0.25, 3, ""}},
                  ledger);
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

vanet::sim::ScenarioConfig tiny(const std::string& protocol) {
  vanet::sim::ScenarioConfig cfg = lattice_config(7, 3.0, 4, 200.0, 60);
  cfg.protocol = protocol;
  cfg.traffic.flows = 4;
  return cfg;
}

std::string untraced_digest(const vanet::sim::ScenarioConfig& cfg) {
  vanet::sim::Scenario s{cfg};
  s.run();
  return vanet::sim::report_digest(s.report());
}

TEST(Tracer, AodvSpendsNoTimeInHello) {
  const auto cfg = tiny("aodv");
  vanet::sim::Scenario s{cfg};
  const LayerTimes t = run_traced(s);
  EXPECT_EQ(t.beacon_s, 0.0);
  EXPECT_EQ(t.hello_rx_s, 0.0);
  EXPECT_EQ(t.hello_rx_calls, 0u);
  EXPECT_GT(t.routing_rx_calls, 0u);
  EXPECT_GT(t.ticks, 0u);
  EXPECT_EQ(t.events, s.events_dispatched());
  EXPECT_EQ(t.event_us.size(), t.events);
  EXPECT_LE(t.attributed_s(), t.run_s);
  // Fidelity: the wrappers dispatch exactly as Scenario does.
  EXPECT_EQ(vanet::sim::report_digest(s.report()), untraced_digest(cfg));
}

TEST(Tracer, HelloProtocolsShowBeaconAndRxTime) {
  const auto cfg = tiny("etx");
  vanet::sim::Scenario s{cfg};
  const LayerTimes t = run_traced(s);
  EXPECT_GT(t.beacon_s, 0.0);
  EXPECT_GT(t.hello_rx_calls, 0u);
  EXPECT_GT(t.hello_rx_s, 0.0);
  EXPECT_EQ(vanet::sim::report_digest(s.report()), untraced_digest(cfg));
}

}  // namespace
}  // namespace perfbench
