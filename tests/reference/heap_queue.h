// Test oracle for Simulator: the original event engine, a std::priority_queue
// of (time, seq, callback) with lazy cancellation through two unordered_sets.
//
// It exposes the part of Simulator's API the tests drive, with the same
// contract: time order, FIFO among same-time events, the time-advance
// observer fired before the event it precedes, and RunUntil's final advance.
// tests/sim_queue_test.cc requires both to fire identical traces over
// randomized schedules, and bench/oracle_gate times one against the other.
//
// It keeps the defect the calendar queue fixed: a cancelled entry stays in
// the heap until its time surfaces, so PhysicalCount grows with cancel churn.

#ifndef TESTS_REFERENCE_HEAP_QUEUE_H_
#define TESTS_REFERENCE_HEAP_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace philly {

class ReferenceHeapQueue {
 public:
  using Callback = InlineCallback;

  ReferenceHeapQueue() = default;
  ReferenceHeapQueue(const ReferenceHeapQueue&) = delete;
  ReferenceHeapQueue& operator=(const ReferenceHeapQueue&) = delete;

  SimTime Now() const { return now_; }

  EventId ScheduleAt(SimTime t, Callback cb) {
    assert(t >= now_);
    assert(cb);
    const uint64_t seq = next_seq_++;
    heap_.push(Entry{t, seq, std::move(cb)});
    pending_.insert(seq);
    return EventId{seq};
  }

  EventId ScheduleAfter(SimDuration d, Callback cb) {
    assert(d >= 0);
    return ScheduleAt(now_ + d, std::move(cb));
  }

  bool Cancel(EventId id) {
    if (pending_.erase(id.value) == 0) {
      return false;  // never scheduled, already fired, or already cancelled
    }
    cancelled_.insert(id.value);
    return true;
  }

  bool Step() {
    if (!SkipCancelled()) {
      return false;
    }
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    pending_.erase(top.seq);
    assert(top.time >= now_);
    if (top.time > now_ && time_advance_observer_) {
      time_advance_observer_(top.time);
    }
    now_ = top.time;
    top.callback();
    return true;
  }

  void Run() {
    while (Step()) {
    }
  }

  void RunUntil(SimTime deadline) {
    while (SkipCancelled() && heap_.top().time <= deadline) {
      Step();
    }
    if (now_ < deadline) {
      if (time_advance_observer_) {
        time_advance_observer_(deadline);
      }
      now_ = deadline;
    }
  }

  void SetTimeAdvanceObserver(std::function<void(SimTime)> observer) {
    time_advance_observer_ = std::move(observer);
  }

  size_t PendingCount() const { return pending_.size(); }
  size_t PhysicalCount() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time = 0;
    uint64_t seq = 0;
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Pops cancelled entries off the top; returns false when the queue is empty.
  bool SkipCancelled() {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.top().seq);
      if (it == cancelled_.end()) {
        return true;
      }
      cancelled_.erase(it);
      heap_.pop();
    }
    return false;
  }

  SimTime now_ = 0;
  std::function<void(SimTime)> time_advance_observer_;
  uint64_t next_seq_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  // Ids scheduled but not yet fired or cancelled.
  std::unordered_set<uint64_t> pending_;
  // Cancelled ids still physically present in the heap (lazy deletion).
  std::unordered_set<uint64_t> cancelled_;
};

}  // namespace philly

#endif  // TESTS_REFERENCE_HEAP_QUEUE_H_
