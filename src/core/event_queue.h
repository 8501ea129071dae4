// Zero-steady-state-allocation discrete-event queue.
//
// Events at equal timestamps are dispatched in insertion order (FIFO), which
// together with the integral SimTime makes whole simulations reproducible.
//
// Core design (see docs/PERFORMANCE.md for the full write-up):
//  - Events live in reusable slots carved out of 256-slot slabs; slots are
//    recycled through a free list, so steady-state scheduling allocates
//    nothing. Slabs never move, so slot references stay valid while a
//    callback runs even if the pool grows underneath it.
//  - Callbacks are stored in 96 bytes of inline storage inside the slot
//    (enough for every closure the simulator schedules); oversized captures
//    fall back to one heap box and bump a counter that proves the fallback
//    stays cold.
//  - The priority structure is a 4-ary implicit heap over 16-byte
//    (time, seq, slot) entries — shallower and more cache-friendly than a
//    binary heap of fat nodes, and entries never carry the callback.
//  - EventHandle is a trivially-copyable {queue, slot, generation} triple.
//    cancel()/pending() are O(1) field checks (no weak_ptr, no atomics), a
//    cancel eagerly removes the heap entry (dead timers stop inflating the
//    heap), and a stale handle whose slot has been reused is inert because
//    the generation no longer matches.
//  - Recurring events (schedule_every / schedule_recurring) re-arm in place:
//    the same slot and callback are reused across firings, consuming exactly
//    one sequence number per firing at the point the callback returns — the
//    same point at which a self-rescheduling callback would have called
//    schedule(), so migrating periodic users preserves equal-time FIFO order
//    bit-for-bit.
//  - reserve_seq_block() lets a caller pre-claim the sequence numbers a batch
//    of future events will use (CbrTraffic claims exactly the block its old
//    schedule-everything-upfront loop consumed), again preserving global
//    dispatch order while keeping only one pending event per flow.
//
// Sequence numbers are 32-bit so a heap entry fits in 16 bytes; one queue
// therefore supports 2^32-1 schedules over its lifetime (hours of simulated
// load — a fresh Simulator per run, as every harness here creates, never gets
// close). Exhaustion fails loudly via VANET_ASSERT.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/assert.h"
#include "core/sim_time.h"

namespace vanet::core {

class EventQueue;

/// Handle to a scheduled event. Default-constructed handles are inert.
/// Trivially copyable; does not own the event (dropping a handle never
/// cancels). Must not outlive the EventQueue it came from.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not yet fired (for recurring events: stop the
  /// recurrence and reclaim the slot). Safe to call repeatedly.
  void cancel();

  /// True while the event is still pending (scheduled and not cancelled or
  /// fired). A recurring event stays pending across firings until stopped.
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_{queue}, slot_{slot}, generation_{generation} {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Inline capacity for callback state. The largest closures the simulator
  /// schedules capture a Packet by value (~96 bytes with the capturing
  /// object's pointer); anything larger goes through one heap box and bumps
  /// alloc_stats().oversize_callbacks.
  static constexpr std::size_t kInlineBytes = 96;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` (any void() callable) to run once at absolute time `at`.
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn);

  /// Schedule `fn` (void()) at `first_at`, then every `period` after the
  /// previous firing — drift-free, since the next time is computed from the
  /// fired-at timestamp, not wall progress. The slot is reused across
  /// firings. Stop with EventHandle::cancel() (also valid mid-callback).
  template <typename F>
  EventHandle schedule_every(SimTime first_at, SimTime period, F&& fn);

  /// Schedule a variable-period recurring event. `fn` is SimTime(SimTime
  /// fired_at) and returns the next absolute firing time, or any negative
  /// SimTime to stop and release the slot.
  template <typename F>
  EventHandle schedule_recurring(SimTime first_at, F&& fn);

  /// As schedule_recurring, but the event draws its per-firing sequence
  /// numbers consecutively from the `seq_count`-wide block starting at
  /// `seq_base` (obtained via reserve_seq_block) instead of from the shared
  /// counter. Lets a batch scheduler keep the exact equal-time FIFO rank its
  /// events would have had if they had all been scheduled upfront. Firing
  /// more than `seq_count` times fails loudly: seqs past the block would
  /// collide with the shared counter and silently break FIFO determinism.
  template <typename F>
  EventHandle schedule_recurring(SimTime first_at, std::uint32_t seq_base,
                                 std::uint32_t seq_count, F&& fn);

  /// Claim `count` consecutive sequence numbers and return the first.
  std::uint32_t reserve_seq_block(std::uint32_t count);

  /// Pop and run the next event; returns false if empty.
  /// `now` is updated to the event's timestamp before the callback runs.
  bool run_next(SimTime& now);

  /// Timestamp of the next pending event, or SimTime::max() when empty.
  SimTime next_time() const {
    return heap_.empty() ? SimTime::max() : heap_[0].at;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }

  /// Allocation telemetry: steady-state scheduling must not allocate, and
  /// these counters are how benches prove it (see bench_scenario_throughput).
  struct AllocStats {
    std::uint64_t slab_allocations = 0;   ///< 256-slot pool growth events
    std::uint64_t oversize_callbacks = 0; ///< closures that missed the SBO
    std::size_t peak_pending = 0;         ///< high-water heap depth

    /// Fold another queue's stats in: growth events sum, the peak is the
    /// higher of the two.
    void merge_from(const AllocStats& o) {
      slab_allocations += o.slab_allocations;
      oversize_callbacks += o.oversize_callbacks;
      peak_pending = std::max(peak_pending, o.peak_pending);
    }
  };
  const AllocStats& alloc_stats() const { return stats_; }

 private:
  friend class EventHandle;

  using InvokeFn = SimTime (*)(void* obj, SimTime fired_at);
  using DestroyFn = void (*)(void* obj);

  static constexpr std::uint32_t kSlabShift = 8;  // 256 slots per slab
  static constexpr std::uint32_t kSlabSlots = 1u << kSlabShift;
  static constexpr std::uint32_t kSlabMask = kSlabSlots - 1;
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  // Slot::pos sentinels (anything below is a real heap index).
  static constexpr std::uint32_t kFreePos = 0xffffffffu;
  static constexpr std::uint32_t kFiringPos = 0xfffffffeu;
  static constexpr std::uint32_t kFiringCancelledPos = 0xfffffffdu;
  static constexpr std::uint32_t kSeqLimit = 0xffffffffu;

  /// One pooled event: 32 bytes of bookkeeping + inline callback storage.
  struct Slot {
    InvokeFn invoke = nullptr;
    DestroyFn destroy = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t pos = kFreePos;  ///< heap index or a k*Pos sentinel
    /// Next reserved sequence number while queued with reserved seqs;
    /// free-list link while on the free list.
    std::uint32_t aux = kNullSlot;
    bool recurring = false;
    bool reserved_seq = false;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 128, "one slot should span two cache lines");

  /// 16-byte heap entry; the callback stays in the slot.
  struct HeapEntry {
    SimTime at;
    std::uint32_t seq = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries must stay compact");

  // ---- adapters: uniform invoke signature over one-shot / recurring -------
  template <typename D>
  struct OneShot {
    static SimTime invoke(void* obj, SimTime) {
      (*static_cast<D*>(obj))();
      return SimTime::micros(-1);
    }
    static void destroy(void* obj) { static_cast<D*>(obj)->~D(); }
  };
  template <typename D>
  struct Recurring {
    static SimTime invoke(void* obj, SimTime fired_at) {
      return (*static_cast<D*>(obj))(fired_at);
    }
    static void destroy(void* obj) { static_cast<D*>(obj)->~D(); }
  };
  template <typename D, typename Inline>
  struct Boxed {
    static SimTime invoke(void* obj, SimTime fired_at) {
      return Inline::invoke(*static_cast<D**>(obj), fired_at);
    }
    static void destroy(void* obj) { delete *static_cast<D**>(obj); }
  };

  template <template <typename> class Adapter, typename F>
  std::uint32_t emplace_event(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (requires { fn == nullptr; }) {
      VANET_ASSERT_MSG(!(fn == nullptr), "scheduling a null callback");
    }
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot_ref(idx);
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) D(std::forward<F>(fn));
      s.invoke = &Adapter<D>::invoke;
      s.destroy = &Adapter<D>::destroy;
    } else {
      ++stats_.oversize_callbacks;
      ::new (static_cast<void*>(s.storage)) D*(new D(std::forward<F>(fn)));
      s.invoke = &Boxed<D, Adapter<D>>::invoke;
      s.destroy = &Boxed<D, Adapter<D>>::destroy;
    }
    return idx;
  }

  Slot& slot_ref(std::uint32_t idx) {
    return slabs_[idx >> kSlabShift][idx & kSlabMask];
  }
  const Slot& slot_ref(std::uint32_t idx) const {
    return slabs_[idx >> kSlabShift][idx & kSlabMask];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  /// Reserved-block upper bound for a reserved-seq slot's next firing.
  std::uint32_t reserved_end_of(std::uint32_t idx) const;
  std::uint32_t alloc_seq() {
    VANET_ASSERT_MSG(next_seq_ < kSeqLimit,
                     "event sequence space exhausted (2^32 schedules on one "
                     "queue); use a fresh Simulator per run");
    return next_seq_++;
  }

  // 4-ary implicit heap, min at index 0, ordered by (at, seq).
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slot_ref(e.slot).pos = pos;
  }
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void heap_push(const HeapEntry& e);
  void heap_remove(std::uint32_t pos);

  void do_cancel(std::uint32_t slot_idx, std::uint32_t generation);
  bool is_pending(std::uint32_t slot_idx, std::uint32_t generation) const;

  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t slot_count_ = 0;      ///< total slots across slabs
  std::uint32_t free_head_ = kNullSlot;
  std::uint32_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  /// (slot, block end) per live reserved-seq event — a handful of entries
  /// (one per CBR flow), kept out of Slot to preserve its two-line layout.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reserved_ends_;
  AllocStats stats_;
};

// ---- template definitions ---------------------------------------------------

template <typename F>
EventHandle EventQueue::schedule(SimTime at, F&& fn) {
  const std::uint32_t idx = emplace_event<OneShot>(std::forward<F>(fn));
  Slot& s = slot_ref(idx);
  s.recurring = false;
  s.reserved_seq = false;
  heap_push(HeapEntry{at, alloc_seq(), idx});
  return EventHandle{this, idx, s.generation};
}

template <typename F>
EventHandle EventQueue::schedule_recurring(SimTime first_at, F&& fn) {
  static_assert(std::is_invocable_r_v<SimTime, std::decay_t<F>, SimTime>,
                "recurring callbacks are SimTime(SimTime fired_at)");
  const std::uint32_t idx = emplace_event<Recurring>(std::forward<F>(fn));
  Slot& s = slot_ref(idx);
  s.recurring = true;
  s.reserved_seq = false;
  heap_push(HeapEntry{first_at, alloc_seq(), idx});
  return EventHandle{this, idx, s.generation};
}

template <typename F>
EventHandle EventQueue::schedule_recurring(SimTime first_at,
                                           std::uint32_t seq_base,
                                           std::uint32_t seq_count, F&& fn) {
  static_assert(std::is_invocable_r_v<SimTime, std::decay_t<F>, SimTime>,
                "recurring callbacks are SimTime(SimTime fired_at)");
  VANET_ASSERT_MSG(seq_count >= 1, "reserved-seq event needs a non-empty block");
  const std::uint32_t idx = emplace_event<Recurring>(std::forward<F>(fn));
  Slot& s = slot_ref(idx);
  s.recurring = true;
  s.reserved_seq = true;
  s.aux = seq_base + 1;  // the first firing uses seq_base itself
  reserved_ends_.push_back({idx, seq_base + seq_count});
  heap_push(HeapEntry{first_at, seq_base, idx});
  return EventHandle{this, idx, s.generation};
}

template <typename F>
EventHandle EventQueue::schedule_every(SimTime first_at, SimTime period,
                                       F&& fn) {
  VANET_ASSERT_MSG(period > SimTime::zero(),
                   "schedule_every requires a positive period");
  return schedule_recurring(
      first_at, [f = std::forward<F>(fn), period](SimTime fired_at) mutable {
        f();
        return fired_at + period;
      });
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->do_cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->is_pending(slot_, generation_);
}

}  // namespace vanet::core
