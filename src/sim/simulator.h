// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a time-ordered event queue. Ties are
// broken by scheduling order, so runs are fully deterministic. Events may be
// cancelled, which the scheduler uses for timeout/backoff machinery. There is
// intentionally no global simulator instance.
//
// The queue is a calendar queue keyed on the minute grid. Events within a
// ~2.8-day window live in per-minute ring buckets (each a small binary heap
// ordered by (time, seq)); events beyond the window wait in an overflow heap
// and migrate into the ring as the clock advances. Callback storage is a slot
// slab with generation counters, so Cancel is O(1): it destroys the callback
// immediately (freeing its captures), bumps the slot's generation, and leaves
// a tombstone entry in the queue that is skipped when it surfaces. A
// compaction sweep runs whenever tombstones outnumber live events, so internal
// size stays O(live) under arbitrary cancel churn.
//
// tests/reference/heap_queue.h keeps the original priority_queue engine as a
// test oracle: tests/sim_queue_test.cc requires byte-identical firing traces
// from both over randomized schedules, and bench/oracle_gate times one
// against the other.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/callback.h"

namespace philly {

// Opaque handle for a scheduled event; valid until the event fires or is
// cancelled. A default-constructed id (value == 0) is never issued.
struct EventId {
  uint64_t value = 0;
  bool operator==(const EventId&) const = default;
};

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `cb` to run at absolute time `t`. Requires t >= Now().
  EventId ScheduleAt(SimTime t, Callback cb);

  // Schedules `cb` to run `d` from now. Requires d >= 0.
  EventId ScheduleAfter(SimDuration d, Callback cb);

  // Cancels a pending event. Returns false if it already fired or was
  // cancelled. The callback (and anything it captured) is destroyed before
  // this returns.
  bool Cancel(EventId id);

  // Processes events in time order until the queue is empty.
  void Run();

  // Processes events with time <= `deadline`, then advances the clock to
  // `deadline` (if it is later than the last event processed).
  void RunUntil(SimTime deadline);

  // Processes exactly one event if any is pending; returns false otherwise.
  bool Step();

  // Observer fired whenever the clock is about to advance past Now(), with
  // the target time, BEFORE the event at that time runs (and before the final
  // advance of RunUntil). The simulation state visible to the observer is the
  // pre-event state, so samplers see piecewise-constant values between
  // events. The observer must not schedule or cancel events. Pass an empty
  // function to detach.
  void SetTimeAdvanceObserver(std::function<void(SimTime)> observer) {
    time_advance_observer_ = std::move(observer);
  }

  // Number of live (scheduled, not yet fired or cancelled) events.
  size_t PendingCount() const { return live_; }
  // Number of entries physically held in queue structures, including
  // cancelled tombstones awaiting compaction. The bounded-growth regression
  // test asserts PhysicalCount() = O(PendingCount()) under cancel churn.
  size_t PhysicalCount() const { return physical_; }
  uint64_t ProcessedCount() const { return processed_; }

 private:
  // Ring of 2^12 one-minute buckets: 4096 minutes ≈ 2.8 simulated days per
  // window lap, sized so that scheduler backoffs, quantum timers, and
  // checkpoint writes (minutes-to-hours scale) land in the ring and only
  // long-horizon events (job end times, fault renewals) touch the overflow
  // heap.
  static constexpr uint32_t kBucketBits = 12;
  static constexpr uint32_t kNumBuckets = 1u << kBucketBits;
  static constexpr uint32_t kBucketMask = kNumBuckets - 1;
  static constexpr uint32_t kWordCount = kNumBuckets / 64;
  // Compaction fires when at least this many tombstones exist AND they
  // outnumber live entries; the floor keeps tiny queues from re-sweeping on
  // every cancel.
  static constexpr size_t kCompactMinDead = 64;

  struct Slot {
    Callback cb;
    uint32_t gen = 0;
  };
  // 24-byte queue entry; the callback stays put in its slot, so heap sifts
  // move only this.
  struct QEntry {
    SimTime time = 0;
    uint64_t seq = 0;  // tie-break: FIFO among same-time events
    uint32_t slot = 0;
    uint32_t gen = 0;
  };
  // Min-heap comparator for std::push_heap/pop_heap (which build max-heaps):
  // "a sorts after b".
  struct QAfter {
    bool operator()(const QEntry& a, const QEntry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  struct PeekResult {
    enum Kind { kNone, kBucket, kOverflow } kind = kNone;
    uint32_t ring = 0;  // valid when kind == kBucket
  };

  bool IsDead(const QEntry& e) const { return slots_[e.slot].gen != e.gen; }
  void SetBit(uint32_t ring) {
    occupied_[ring >> 6] |= uint64_t{1} << (ring & 63);
  }
  void ClearBit(uint32_t ring) {
    occupied_[ring >> 6] &= ~(uint64_t{1} << (ring & 63));
  }

  void RetireSlot(uint32_t slot);
  void PushEntry(const QEntry& e);
  // Drops tombstones off the top of a bucket/overflow heap.
  void PurgeDeadTop(std::vector<QEntry>& heap);
  // First occupied ring index at or after base_minute_'s ring position
  // (wrapping the full ring), or -1 if every bucket is empty.
  int FindOccupiedBucket() const;
  // Locates the earliest live event without removing it. May purge
  // tombstones and clear stale occupancy bits along the way.
  PeekResult PeekNext();
  // Advances the bucket window and migrates overflow events that now fall
  // inside it. `new_base` must be now_ / 60.
  void AdvanceBase(int64_t new_base);
  // Rebuilds every bucket and the overflow heap with tombstones removed.
  void Compact();
  void MaybeCompact() {
    const size_t dead = physical_ - live_;
    if (dead >= kCompactMinDead && dead > live_) {
      Compact();
    }
  }

  SimTime now_ = 0;
  std::function<void(SimTime)> time_advance_observer_;
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::vector<QEntry>> buckets_;  // size kNumBuckets
  std::vector<uint64_t> occupied_;            // size kWordCount
  std::vector<QEntry> overflow_;              // min-heap via QAfter
  int64_t base_minute_ = 0;                   // == now_ / 60
  size_t live_ = 0;                           // scheduled, not fired/cancelled
  size_t physical_ = 0;                       // entries incl. tombstones
};

}  // namespace philly

#endif  // SRC_SIM_SIMULATOR_H_
