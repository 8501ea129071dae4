// Merge completeness of the run-wide counters the report folds over the
// stacks of a sharded run: every field of NetCounters and ProtocolEvents
// must be summed (stats merged) by the type's own merge. A field added to a
// struct but not to its merge fails here.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "analysis/stats.h"
#include "net/network.h"
#include "routing/protocol.h"

namespace vanet {
namespace {

// NetCounters is all 64-bit counters, so the test walks it as words: a new
// counter is covered without touching this file.
TEST(CounterMerge, NetCountersSumsEveryField) {
  static_assert(std::is_trivially_copyable_v<net::NetCounters>);
  static_assert(sizeof(net::NetCounters) % sizeof(std::uint64_t) == 0,
                "NetCounters holds only 64-bit counters");
  constexpr std::size_t kWords =
      sizeof(net::NetCounters) / sizeof(std::uint64_t);
  std::array<std::uint64_t, kWords> a_words{};
  std::array<std::uint64_t, kWords> b_words{};
  for (std::size_t i = 0; i < kWords; ++i) {
    a_words[i] = i + 1;
    b_words[i] = 1000 * (i + 1);
  }
  auto a = std::bit_cast<net::NetCounters>(a_words);
  const auto b = std::bit_cast<net::NetCounters>(b_words);
  a += b;
  const auto sum = std::bit_cast<std::array<std::uint64_t, kWords>>(a);
  for (std::size_t i = 0; i < kWords; ++i) {
    EXPECT_EQ(sum[i], 1001 * (i + 1)) << "NetCounters word " << i;
  }
  EXPECT_EQ(b.hello_frames_sent, 1000u * kWords);  // the source is untouched
}

// ProtocolEvents mixes counters and running stats. The size check makes a
// new field fail the build until it is set (and so checked) below.
TEST(CounterMerge, ProtocolEventsMergesEveryField) {
  constexpr std::size_t kCounters = 12;
  constexpr std::size_t kStats = 3;
  static_assert(sizeof(routing::ProtocolEvents) ==
                    kCounters * sizeof(std::uint64_t) +
                        kStats * sizeof(analysis::RunningStats),
                "ProtocolEvents gained a field: set it below and merge it in "
                "ProtocolEvents::merge_from");
  auto filled = [](std::uint64_t base) {
    routing::ProtocolEvents e;
    std::uint64_t v = base;
    for (std::uint64_t* c :
         {&e.discoveries_started, &e.routes_established, &e.route_breaks,
          &e.preemptive_rebuilds, &e.data_forwarded, &e.data_dropped_no_route,
          &e.data_dropped_ttl, &e.rreq_at_target, &e.rrep_sent,
          &e.rrep_relayed, &e.rrep_stranded, &e.suppressed_rebroadcasts}) {
      *c = v++;
    }
    double x = static_cast<double>(base);
    for (analysis::RunningStats* s :
         {&e.predicted_route_lifetime, &e.observed_route_lifetime,
          &e.etx_link_abs_error}) {
      s->add(x);
      x += 1.0;
    }
    return e;
  };
  routing::ProtocolEvents a = filled(1);
  a.merge_from(filled(101));
  const std::array<std::uint64_t, kCounters> counters = {
      a.discoveries_started, a.routes_established, a.route_breaks,
      a.preemptive_rebuilds, a.data_forwarded, a.data_dropped_no_route,
      a.data_dropped_ttl, a.rreq_at_target, a.rrep_sent,
      a.rrep_relayed, a.rrep_stranded, a.suppressed_rebroadcasts};
  for (std::size_t i = 0; i < kCounters; ++i) {
    EXPECT_EQ(counters[i], (1 + i) + (101 + i)) << "counter " << i;
  }
  const std::array<const analysis::RunningStats*, kStats> stats = {
      &a.predicted_route_lifetime, &a.observed_route_lifetime,
      &a.etx_link_abs_error};
  for (std::size_t i = 0; i < kStats; ++i) {
    EXPECT_EQ(stats[i]->count(), 2u) << "stats " << i;
    EXPECT_DOUBLE_EQ(stats[i]->mean(), 51.0 + static_cast<double>(i))
        << "stats " << i;
  }
}

}  // namespace
}  // namespace vanet
