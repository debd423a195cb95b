#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace philly {

Simulator::Simulator() : buckets_(kNumBuckets), occupied_(kWordCount, 0) {}

EventId Simulator::ScheduleAt(SimTime t, Callback cb) {
  assert(t >= now_);
  assert(cb);
  const uint64_t seq = next_seq_++;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  assert(!s.cb);
  s.cb = std::move(cb);
  PushEntry(QEntry{t, seq, slot, s.gen});
  ++live_;
  ++physical_;
  // slot+1 keeps the low word nonzero so no issued id ever equals EventId{}.
  return EventId{(uint64_t{s.gen} << 32) | (slot + 1)};
}

EventId Simulator::ScheduleAfter(SimDuration d, Callback cb) {
  assert(d >= 0);
  return ScheduleAt(now_ + d, std::move(cb));
}

bool Simulator::Cancel(EventId id) {
  const uint32_t low = static_cast<uint32_t>(id.value);
  if (low == 0) {
    return false;  // EventId{} or a value this simulator never handed out
  }
  const uint32_t slot = low - 1;
  const uint32_t gen = static_cast<uint32_t>(id.value >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || !slots_[slot].cb) {
    return false;  // already fired, already cancelled, or never issued
  }
  RetireSlot(slot);  // queue entry becomes a tombstone via the gen bump
  --live_;
  MaybeCompact();
  return true;
}

void Simulator::RetireSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.Reset();
  ++s.gen;
  free_slots_.push_back(slot);
}

void Simulator::PushEntry(const QEntry& e) {
  const int64_t minute = e.time / 60;
  assert(minute >= base_minute_);
  if (minute < base_minute_ + static_cast<int64_t>(kNumBuckets)) {
    const uint32_t ring = static_cast<uint32_t>(minute) & kBucketMask;
    std::vector<QEntry>& b = buckets_[ring];
    b.push_back(e);
    std::push_heap(b.begin(), b.end(), QAfter{});
    SetBit(ring);
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), QAfter{});
  }
}

void Simulator::PurgeDeadTop(std::vector<QEntry>& heap) {
  while (!heap.empty() && IsDead(heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), QAfter{});
    heap.pop_back();
    --physical_;
  }
}

int Simulator::FindOccupiedBucket() const {
  const uint32_t start = static_cast<uint32_t>(base_minute_) & kBucketMask;
  const uint32_t start_word = start >> 6;
  const uint32_t start_bit = start & 63;
  // First word: only bits at or after the window's ring position.
  const uint64_t head = occupied_[start_word] & (~uint64_t{0} << start_bit);
  if (head != 0) {
    return static_cast<int>((start_word << 6) + std::countr_zero(head));
  }
  for (uint32_t k = 1; k <= kWordCount; ++k) {
    const uint32_t wi = (start_word + k) & (kWordCount - 1);
    uint64_t w = occupied_[wi];
    if (wi == start_word) {
      w &= ~(~uint64_t{0} << start_bit);  // wrapped: bits before start
    }
    if (w != 0) {
      return static_cast<int>((wi << 6) + std::countr_zero(w));
    }
  }
  return -1;
}

Simulator::PeekResult Simulator::PeekNext() {
  if (live_ == 0) {
    return PeekResult{};
  }
  // Ring first: every bucket entry is earlier than every overflow entry
  // (buckets hold minutes in [base, base+N), overflow holds >= base+N).
  // A bucket may also hold tombstones from long-gone minutes that alias the
  // same ring index; they sort first (smaller time) and are purged here.
  for (;;) {
    const int ring = FindOccupiedBucket();
    if (ring < 0) {
      break;
    }
    std::vector<QEntry>& b = buckets_[static_cast<uint32_t>(ring)];
    PurgeDeadTop(b);
    if (b.empty()) {
      ClearBit(static_cast<uint32_t>(ring));  // stale bit; rescan
      continue;
    }
    return PeekResult{PeekResult::kBucket, static_cast<uint32_t>(ring)};
  }
  PurgeDeadTop(overflow_);
  assert(!overflow_.empty());  // live_ > 0 and the ring is empty
  return PeekResult{PeekResult::kOverflow, 0};
}

void Simulator::AdvanceBase(int64_t new_base) {
  assert(new_base >= base_minute_);
  if (new_base == base_minute_) {
    return;
  }
  base_minute_ = new_base;
  const int64_t window_end = base_minute_ + static_cast<int64_t>(kNumBuckets);
  for (;;) {
    PurgeDeadTop(overflow_);
    if (overflow_.empty() || overflow_.front().time / 60 >= window_end) {
      break;
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), QAfter{});
    const QEntry e = overflow_.back();
    overflow_.pop_back();
    const uint32_t ring = static_cast<uint32_t>(e.time / 60) & kBucketMask;
    std::vector<QEntry>& b = buckets_[ring];
    b.push_back(e);
    std::push_heap(b.begin(), b.end(), QAfter{});
    SetBit(ring);
  }
}

void Simulator::Compact() {
  for (uint32_t wi = 0; wi < kWordCount; ++wi) {
    uint64_t w = occupied_[wi];
    while (w != 0) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_zero(w));
      w &= w - 1;
      std::vector<QEntry>& b = buckets_[(wi << 6) + bit];
      b.erase(std::remove_if(b.begin(), b.end(),
                             [this](const QEntry& e) { return IsDead(e); }),
              b.end());
      if (b.empty()) {
        occupied_[wi] &= ~(uint64_t{1} << bit);
      } else {
        std::make_heap(b.begin(), b.end(), QAfter{});
      }
    }
  }
  overflow_.erase(std::remove_if(overflow_.begin(), overflow_.end(),
                                 [this](const QEntry& e) { return IsDead(e); }),
                  overflow_.end());
  std::make_heap(overflow_.begin(), overflow_.end(), QAfter{});
  physical_ = live_;
}

bool Simulator::Step() {
  const PeekResult next = PeekNext();
  if (next.kind == PeekResult::kNone) {
    return false;
  }
  std::vector<QEntry>& heap =
      next.kind == PeekResult::kBucket ? buckets_[next.ring] : overflow_;
  std::pop_heap(heap.begin(), heap.end(), QAfter{});
  const QEntry e = heap.back();
  heap.pop_back();
  --physical_;
  if (next.kind == PeekResult::kBucket && heap.empty()) {
    ClearBit(next.ring);
  }
  Callback cb = std::move(slots_[e.slot].cb);
  RetireSlot(e.slot);
  --live_;
  assert(e.time >= now_);
  if (e.time > now_ && time_advance_observer_) {
    time_advance_observer_(e.time);
  }
  now_ = e.time;
  AdvanceBase(now_ / 60);
  ++processed_;
  cb();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  for (;;) {
    const PeekResult next = PeekNext();
    if (next.kind == PeekResult::kNone) {
      break;
    }
    const SimTime t = next.kind == PeekResult::kBucket
                          ? buckets_[next.ring].front().time
                          : overflow_.front().time;
    if (t > deadline) {
      break;
    }
    Step();
  }
  if (now_ < deadline) {
    if (time_advance_observer_) {
      time_advance_observer_(deadline);
    }
    now_ = deadline;
    AdvanceBase(now_ / 60);
  }
}

void Simulator::Run() {
  while (Step()) {
  }
}

}  // namespace philly
