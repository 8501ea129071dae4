// The simulation driver: owns virtual time and the event queue.
//
// All model components hold a reference to one Simulator and schedule work
// relative to `now()`. There are no global singletons; tests may run several
// simulators side by side.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/event_queue.h"
#include "core/sim_time.h"

namespace vanet::core {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` after `delay` from now. Negative delays are clamped to now.
  template <typename F>
  EventHandle schedule(SimTime delay, F&& fn) {
    const SimTime at = delay.is_negative() ? now_ : now_ + delay;
    return queue_.schedule(at, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute time (>= now).
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    return queue_.schedule(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Recurring drift-free timer: first firing after `first_delay`, then every
  /// `period` after the previous firing, reusing one pool slot throughout.
  /// Stop it with EventHandle::cancel().
  template <typename F>
  EventHandle schedule_every(SimTime first_delay, SimTime period, F&& fn) {
    const SimTime at = first_delay.is_negative() ? now_ : now_ + first_delay;
    return queue_.schedule_every(at, period, std::forward<F>(fn));
  }

  /// Variable-period recurring timer. `fn` is SimTime(SimTime fired_at) and
  /// returns the next absolute firing time, or any negative SimTime to stop.
  template <typename F>
  EventHandle schedule_recurring(SimTime first_delay, F&& fn) {
    const SimTime at = first_delay.is_negative() ? now_ : now_ + first_delay;
    return queue_.schedule_recurring(at, std::forward<F>(fn));
  }

  /// As schedule_recurring, but at an absolute first time and drawing
  /// per-firing sequence numbers from the `seq_count`-wide block starting at
  /// `seq_base`, claimed via reserve_seq_block (equal-time FIFO rank as if
  /// every firing had been scheduled upfront).
  template <typename F>
  EventHandle schedule_recurring_at(SimTime first_at, std::uint32_t seq_base,
                                    std::uint32_t seq_count, F&& fn) {
    return queue_.schedule_recurring(first_at < now_ ? now_ : first_at,
                                     seq_base, seq_count, std::forward<F>(fn));
  }

  /// Claim `count` consecutive event sequence numbers (see EventQueue).
  std::uint32_t reserve_seq_block(std::uint32_t count) {
    return queue_.reserve_seq_block(count);
  }

  /// Run until the queue drains or `end` is reached (events at `end` included).
  void run_until(SimTime end);

  /// Run every event strictly before `end`, then advance now() to `end`.
  /// The window-barrier primitive of the sharded engine: consecutive calls
  /// with increasing `end` values dispatch exactly the events run_until(last)
  /// would, in the same (time, seq) order, but with safe pause points at each
  /// window edge where cross-shard work may be injected at time `end`.
  void run_before(SimTime end);

  /// Timestamp of the earliest pending event, or SimTime::max() when idle.
  SimTime next_event_time() const {
    return queue_.empty() ? SimTime::max() : queue_.next_time();
  }

  /// Run until the queue drains completely.
  void run();

  /// Request that the run loop stops after the current event.
  void stop() { stopped_ = true; }

  /// Install a guard polled every `every` dispatched events during run loops
  /// (the count carries across run_until / run_before calls); it may throw
  /// (aborting the run) or call stop(). Used by the experiment engine's
  /// watchdog (wall-clock timeout, event budget). Pass a null function to
  /// remove. The check never runs mid-event, so model state stays consistent
  /// at the throw point.
  void set_abort_check(std::function<void()> fn, std::uint64_t every = 1024) {
    abort_check_ = std::move(fn);
    abort_check_every_ = every == 0 ? 1 : every;
    abort_check_countdown_ = abort_check_every_;
  }

  /// Poll the installed guard now, if any. A loop driving this Simulator in
  /// short steps (the sharded coordinator, between windows) calls it so the
  /// guard also sees work dispatched on other loops.
  void poll_abort_check() {
    if (abort_check_) abort_check_();
  }

  std::uint64_t events_dispatched() const { return queue_.dispatched(); }
  std::size_t events_pending() const { return queue_.size(); }

  /// Scheduler allocation telemetry (perf harness; see EventQueue).
  const EventQueue::AllocStats& scheduler_stats() const {
    return queue_.alloc_stats();
  }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  bool stopped_ = false;
  std::function<void()> abort_check_;
  std::uint64_t abort_check_every_ = 1024;
  std::uint64_t abort_check_countdown_ = 0;
};

}  // namespace vanet::core
