// Regression and differential tests for the event queue.
//
// Simulator's calendar queue must match the original heap engine, kept as
// the test oracle ReferenceHeapQueue (tests/reference/heap_queue.h),
// event-for-event while fixing its one real defect: cancelled entries
// accumulating in the heap without bound. These tests pin down
//   * bounded physical size under cancel/reschedule churn (the bug fix),
//   * FIFO ordering among same-tick events,
//   * RunUntil / time-advance-observer interplay,
//   * randomized schedule/cancel differential: oracle vs calendar traces,
//   * cross-thread determinism of the fired-event stream (tsan label).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/simulator.h"
#include "tests/reference/heap_queue.h"

namespace philly {
namespace {

// Reschedule-heavy workload shaped like the scheduler's timeout machinery:
// one long-lived "end event" per job that gets cancelled and rescheduled on
// every preemption. Live count stays tiny; total churn is large.
constexpr int kChurnRounds = 50000;

template <typename Queue>
size_t ChurnPhysicalPeak() {
  Queue sim;
  size_t peak = 0;
  EventId pending;
  for (int i = 0; i < kChurnRounds; ++i) {
    if (pending != EventId{}) {
      sim.Cancel(pending);
    }
    pending = sim.ScheduleAt(static_cast<SimTime>(1000000 + i), [] {});
    peak = std::max(peak, sim.PhysicalCount());
  }
  EXPECT_EQ(sim.PendingCount(), 1u);
  return peak;
}

// The fix: with at most one live event, the calendar engine's tombstone
// compaction keeps physical storage O(live + compaction floor) no matter how
// many cancels have happened.
TEST(SimQueueBoundedGrowthTest, CalendarStaysBoundedUnderCancelChurn) {
  const size_t peak = ChurnPhysicalPeak<Simulator>();
  // Compaction triggers once tombstones exceed max(64, live); with live == 1
  // the physical size can never reach 256 entries, let alone kChurnRounds.
  EXPECT_LE(peak, 256u);
}

// The bug being fixed, kept as an executable record: the heap oracle retains
// every cancelled entry until it would surface, so the same churn grows the
// queue to the full round count. (This is the pre-fix failure mode — the
// bounded assertion above fails on ReferenceHeapQueue.)
TEST(SimQueueBoundedGrowthTest, ReferenceHeapGrowsWithoutBound) {
  const size_t peak = ChurnPhysicalPeak<ReferenceHeapQueue>();
  EXPECT_GE(peak, static_cast<size_t>(kChurnRounds));
}

template <typename Queue>
class SimQueueEngineTest : public ::testing::Test {};

struct EngineNames {
  template <typename Queue>
  static std::string GetName(int) {
    return std::is_same_v<Queue, Simulator> ? "Calendar" : "ReferenceHeap";
  }
};

using Engines = ::testing::Types<Simulator, ReferenceHeapQueue>;
TYPED_TEST_SUITE(SimQueueEngineTest, Engines, EngineNames);

TYPED_TEST(SimQueueEngineTest, SameTickEventsFireInScheduleOrder) {
  TypeParam sim;
  std::vector<int> order;
  // Interleave two ticks so bucket-internal ordering (not just arrival
  // order into an empty queue) is exercised.
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(70, [&order, i] { order.push_back(100 + i); });
    sim.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
    EXPECT_EQ(order[static_cast<size_t>(50 + i)], 100 + i);
  }
}

TYPED_TEST(SimQueueEngineTest, ObserverSeesEveryAdvanceBeforeTheEvent) {
  TypeParam sim;
  std::vector<std::pair<SimTime, int>> log;  // (time, 0=observer / 1=event)
  sim.SetTimeAdvanceObserver([&](SimTime t) { log.push_back({t, 0}); });
  sim.ScheduleAt(10, [&] { log.push_back({10, 1}); });
  sim.ScheduleAt(10, [&] { log.push_back({10, 1}); });  // same tick: one advance
  sim.ScheduleAt(25, [&] { log.push_back({25, 1}); });
  sim.RunUntil(40);  // final advance to the deadline also notifies
  EXPECT_EQ(sim.Now(), 40);
  const std::vector<std::pair<SimTime, int>> want = {
      {10, 0}, {10, 1}, {10, 1}, {25, 0}, {25, 1}, {40, 0}};
  EXPECT_EQ(log, want);
}

TYPED_TEST(SimQueueEngineTest, RunUntilAtNowDoesNotNotifyObserver) {
  TypeParam sim;
  int advances = 0;
  sim.SetTimeAdvanceObserver([&](SimTime) { ++advances; });
  sim.ScheduleAt(5, [] {});
  sim.RunUntil(5);
  EXPECT_EQ(advances, 1);
  sim.RunUntil(5);  // clock already there: no advance, no callback
  EXPECT_EQ(advances, 1);
  EXPECT_EQ(sim.Now(), 5);
}

// One randomized driver both engines replay identically: schedules (near and
// far beyond the calendar ring's window), cancels, reschedules from inside
// callbacks, and interleaved RunUntil calls. Returns the serialized trace of
// everything that fired.
template <typename Queue>
std::string TraceOf(uint64_t seed) {
  Queue sim;
  Rng rng(seed);
  std::string trace;
  std::vector<EventId> live;
  int next_tag = 0;

  auto fire = [&sim, &trace](int tag) {
    trace += std::to_string(sim.Now());
    trace += ':';
    trace += std::to_string(tag);
    trace += '\n';
  };

  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) {
      // Mix minute-grid-local times with far-future ones so events land in
      // ring buckets AND the overflow heap (> 4096 minutes out).
      const SimDuration d = rng.Bernoulli(0.2)
                                ? static_cast<SimDuration>(rng.Below(40'000'000))
                                : static_cast<SimDuration>(rng.Below(3'000));
      const int tag = next_tag++;
      if (rng.Bernoulli(0.25)) {
        // Schedule a chain: the event reschedules a child when it fires.
        const int child = next_tag++;
        live.push_back(sim.ScheduleAfter(d, [&sim, &fire, tag, child] {
          fire(tag);
          sim.ScheduleAfter(17, [&fire, child] { fire(child); });
        }));
      } else {
        live.push_back(sim.ScheduleAfter(d, [&fire, tag] { fire(tag); }));
      }
      if (!live.empty() && rng.Bernoulli(0.35)) {
        const size_t pick = rng.Below(live.size());
        sim.Cancel(live[pick]);  // may be stale (already fired): both engines
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    sim.RunUntil(sim.Now() + static_cast<SimDuration>(rng.Below(200'000)));
  }
  sim.Run();
  return trace;
}

class SimQueueDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimQueueDifferentialTest, CalendarMatchesReferenceTraceExactly) {
  const std::string reference = TraceOf<ReferenceHeapQueue>(GetParam());
  const std::string calendar = TraceOf<Simulator>(GetParam());
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(calendar, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimQueueDifferentialTest,
                         ::testing::Values(1, 42, 777, 31337));

// Determinism across threads: the fired-event stream must not depend on which
// thread runs the simulator (no hidden global state in either engine). Runs
// under the tsan label so the ThreadSanitizer job checks the same property.
TEST(SimQueueThreadedTest, TracesAreByteIdenticalAcrossThreads) {
  constexpr int kThreads = 4;
  std::vector<std::string> traces(kThreads);
  {
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&traces, i] {
        traces[static_cast<size_t>(i)] =
            i % 2 == 0 ? TraceOf<Simulator>(/*seed=*/4242)
                       : TraceOf<ReferenceHeapQueue>(/*seed=*/4242);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(traces[static_cast<size_t>(i)], traces[0]) << "thread " << i;
  }
  EXPECT_FALSE(traces[0].empty());
}

}  // namespace
}  // namespace philly
