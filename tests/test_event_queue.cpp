#include "core/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/simulator.h"

namespace vanet::core {
namespace {

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  q.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  q.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  SimTime now;
  while (q.run_next(now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(now, SimTime::millis(30));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  SimTime now;
  while (q.run_next(now)) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(SimTime::millis(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  SimTime now;
  EXPECT_FALSE(q.run_next(now));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, HandleReportsFiredAsNotPending) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  SimTime now;
  EXPECT_TRUE(q.run_next(now));
  EXPECT_FALSE(h.pending());
  h.cancel();  // safe after firing
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(9), [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), SimTime::millis(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  SimTime now;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(now + SimTime::millis(1), chain);
  };
  q.schedule(SimTime::millis(1), chain);
  while (q.run_next(now)) {
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(now, SimTime::millis(5));
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert) {
  EventQueue q;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = q.schedule(SimTime::millis(5), [&] { a_fired = true; });
  a.cancel();  // frees the slot; the free list hands it to the next schedule
  EventHandle b = q.schedule(SimTime::millis(6), [&] { b_fired = true; });
  EXPECT_FALSE(a.pending());
  a.cancel();  // stale generation: must not disturb b's event
  EXPECT_TRUE(b.pending());
  SimTime now;
  while (q.run_next(now)) {
  }
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
}

TEST(EventQueue, CancelReclaimsHeapEntryEagerly) {
  EventQueue q;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(q.schedule(SimTime::millis(i), [] {}));
  }
  // Cancel from the middle of the heap, not just the root.
  for (int i = 10; i < 90; ++i) hs[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(q.size(), 20u);  // dead timers left the heap immediately
  SimTime now;
  int fired = 0;
  while (q.run_next(now)) ++fired;
  EXPECT_EQ(fired, 20);
}

TEST(EventQueue, OversizeCallbackFallsBackToHeapOnce) {
  EventQueue q;
  std::array<char, 2 * EventQueue::kInlineBytes> big{};
  big[0] = 7;
  char out = 0;
  q.schedule(SimTime::millis(1), [big, &out] { out = big[0]; });
  EXPECT_EQ(q.alloc_stats().oversize_callbacks, 1u);
  SimTime now;
  EXPECT_TRUE(q.run_next(now));
  EXPECT_EQ(out, 7);
  // An oversized pending callback must also release its box when cancelled
  // or when the queue is destroyed (ASan would flag a leak here).
  q.schedule(SimTime::millis(2), [big] { (void)big; });
  EventHandle h = q.schedule(SimTime::millis(3), [big] { (void)big; });
  h.cancel();
  EXPECT_EQ(q.alloc_stats().oversize_callbacks, 3u);
}

TEST(EventQueue, SteadyStateSchedulingDoesNotAllocate) {
  EventQueue q;
  SimTime now;
  // Warm-up: grow the pool to its working depth.
  for (int i = 0; i < 1000; ++i) q.schedule(now + SimTime::micros(i), [] {});
  while (q.run_next(now)) {
  }
  const auto warm = q.alloc_stats();
  // Steady state at the same depth: the pool must not grow again and every
  // closure must fit the inline storage.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 1000; ++i) q.schedule(now + SimTime::micros(i), [] {});
    while (q.run_next(now)) {
    }
  }
  EXPECT_EQ(q.alloc_stats().slab_allocations, warm.slab_allocations);
  EXPECT_EQ(q.alloc_stats().oversize_callbacks, 0u);
}

TEST(EventQueueProperty, MatchesMultimapReferenceModel) {
  // Randomized schedule / cancel / fire churn against a reference model: a
  // multimap keyed (time, insertion order) must predict the exact dispatch
  // sequence, and eager cancel keeps q.size() equal to the model's.
  std::mt19937 rng{20260730u};
  for (std::uint32_t round = 0; round < 10; ++round) {
    EventQueue q;
    SimTime now;
    using Key = std::pair<std::int64_t, std::uint64_t>;
    std::multimap<Key, int> ref;
    std::map<int, std::multimap<Key, int>::iterator> live;
    std::vector<std::pair<int, EventHandle>> handles;
    std::vector<int> fired;
    std::uint64_t order = 0;
    int next_id = 0;
    auto run_one = [&] {
      if (!q.run_next(now)) return false;
      if (ref.empty()) {
        ADD_FAILURE() << "queue fired but model was empty";
        return false;
      }
      // fired.back() was appended by the callback just now.
      const auto front = ref.begin();
      EXPECT_EQ(fired.back(), front->second);
      live.erase(front->second);
      ref.erase(front);
      return true;
    };
    for (int step = 0; step < 2000; ++step) {
      const auto op = rng() % 10;
      if (op < 5) {
        // Small time range on purpose: plenty of equal-time collisions.
        const SimTime at = now + SimTime::millis(static_cast<std::int64_t>(
                                     rng() % 16));
        const int id = next_id++;
        EventHandle h =
            q.schedule(at, [id, &fired] { fired.push_back(id); });
        auto it = ref.emplace(Key{at.as_micros(), order++}, id);
        live.emplace(id, it);
        handles.emplace_back(id, h);
      } else if (op < 7 && !handles.empty()) {
        // Cancel a random handle; stale/fired ones must be inert no-ops.
        auto& [id, h] = handles[rng() % handles.size()];
        const auto it = live.find(id);
        EXPECT_EQ(h.pending(), it != live.end());
        h.cancel();
        EXPECT_FALSE(h.pending());
        if (it != live.end()) {
          ref.erase(it->second);
          live.erase(it);
        }
      } else {
        run_one();
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (run_one()) {
    }
    EXPECT_TRUE(ref.empty());
  }
}

TEST(Simulator, ScheduleEveryIsDriftFreePeriodic) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_every(SimTime::millis(10), SimTime::micros(3333),
                     [&] { times.push_back(sim.now()); });
  sim.run_until(SimTime::seconds(1.0));
  // Firings at exactly first + k*period: no accumulation drift ever.
  ASSERT_GT(times.size(), 250u);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(times[k], SimTime::millis(10) +
                            SimTime::micros(3333) *
                                static_cast<std::int64_t>(k));
  }
}

TEST(Simulator, ScheduleEveryReusesOnePoolSlot) {
  Simulator sim;
  int count = 0;
  sim.schedule_every(SimTime::millis(1), SimTime::millis(1), [&] { ++count; });
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(count, 10000);
  // One periodic timer = one slot = a single 256-slot slab, for the run.
  EXPECT_EQ(sim.scheduler_stats().slab_allocations, 1u);
  EXPECT_EQ(sim.scheduler_stats().peak_pending, 1u);
}

TEST(Simulator, ScheduleEveryCancelStops) {
  Simulator sim;
  int count = 0;
  EventHandle h;
  h = sim.schedule_every(SimTime::millis(1), SimTime::millis(1), [&] {
    if (++count == 3) h.cancel();  // cancel from inside the firing callback
  });
  EXPECT_TRUE(h.pending());
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, RecurringHandleStaysPendingAcrossFirings) {
  Simulator sim;
  EventHandle h;
  std::vector<bool> pending_at_fire;
  h = sim.schedule_every(SimTime::millis(5), SimTime::millis(5),
                         [&] { pending_at_fire.push_back(h.pending()); });
  sim.run_until(SimTime::millis(12));
  ASSERT_EQ(pending_at_fire.size(), 2u);
  EXPECT_TRUE(pending_at_fire[0]);
  EXPECT_TRUE(pending_at_fire[1]);
  EXPECT_TRUE(h.pending());  // still armed for t=15ms
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, RecurringVariablePeriodAndStop) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_recurring(SimTime::millis(1), [&](SimTime fired_at) {
    times.push_back(fired_at);
    if (times.size() == 4) return SimTime::micros(-1);  // stop
    // Growing gaps: 1ms, 2ms, 3ms...
    return fired_at + SimTime::millis(static_cast<std::int64_t>(times.size()));
  });
  sim.run_until(SimTime::seconds(1.0));
  const std::vector<SimTime> expect{SimTime::millis(1), SimTime::millis(2),
                                    SimTime::millis(4), SimTime::millis(7)};
  EXPECT_EQ(times, expect);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(EventQueue, ReservedSeqBlockKeepsUpfrontFifoRank) {
  // A recurring event drawing from a reserved block must dispatch ahead of
  // later-scheduled events at equal times, exactly as if every firing had
  // been scheduled upfront when the block was claimed.
  EventQueue q;
  std::vector<int> order;
  const std::uint32_t base = q.reserve_seq_block(2);
  q.schedule(SimTime::millis(5), [&] { order.push_back(10); });
  q.schedule(SimTime::millis(6), [&] { order.push_back(11); });
  q.schedule_recurring(SimTime::millis(5), base, 2, [&](SimTime fired_at) {
    order.push_back(0);
    return order.size() < 3 ? fired_at + SimTime::millis(1)
                            : SimTime::micros(-1);
  });
  SimTime now;
  while (q.run_next(now)) {
  }
  // At t=5ms and t=6ms the recurring firing outranks the one-shot scheduled
  // earlier in real time but after the reservation.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 0, 11}));
}

TEST(Simulator, RunUntilStopsAtBound) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(3.0), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::seconds(2.0));
  sim.run_until(SimTime::seconds(4.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimTime::millis(-5), [&] { fired = true; });
  sim.run_until(SimTime::zero());
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(SimTime::millis(2), [&] { ++fired; });
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_pending(), 1u);
}

// A loop stepped one window at a time (the sharded coordinator) must still
// reach its guard: the countdown spans run_until / run_before calls.
TEST(Simulator, AbortCheckCountdownSpansRunCalls) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(SimTime::millis(i), [] {});
  int polls = 0;
  sim.set_abort_check([&] { ++polls; }, 4);
  for (int i = 0; i < 10; ++i) sim.run_before(SimTime::millis(i + 1));
  EXPECT_EQ(sim.events_dispatched(), 10u);
  EXPECT_EQ(polls, 2);
  sim.poll_abort_check();
  EXPECT_EQ(polls, 3);
}

TEST(Simulator, DispatchCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

}  // namespace
}  // namespace vanet::core
