// Unit tests for the discrete-event simulator and the FIFO resource model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace biza {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulator, TieBreaksByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(100, [&order, i]() { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime inner_fired_at = 0;
  sim.Schedule(10, [&]() {
    sim.Schedule(5, [&]() { inner_fired_at = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(inner_fired_at, 15u);
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  sim.Schedule(42, [&]() {
    sim.Schedule(0, [&]() { EXPECT_EQ(sim.Now(), 42u); });
  });
  sim.RunUntilIdle();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { fired++; });
  sim.Schedule(100, [&]() { fired++; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(100);
  EXPECT_EQ(sim.Now(), 100u);
  sim.RunFor(50);
  EXPECT_EQ(sim.Now(), 150u);
}

// Equal-timestamp events interleaved with other timestamps must still fire
// in scheduling order among themselves — the tie-break must survive slot
// recycling and heap restructuring, not just the all-equal case above.
TEST(Simulator, TieBreakSurvivesInterleavedTimestamps) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> order;
  int tag = 0;
  // Three batches at times {50, 20, 50, 20, ...} — scheduling alternates
  // between two timestamps so equal-time events are never heap-adjacent.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      const SimTime when = (i % 2 == 0) ? 50 : 20;
      sim.Schedule(when, [&order, &sim, t = tag]() {
        order.emplace_back(sim.Now(), t);
      });
      ++tag;
    }
    // Churn the free list: fire nothing, but add and never reuse a burst of
    // slots via a nested scheduling chain later.
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 48u);
  // Within each timestamp, tags must be strictly increasing (scheduling
  // order), and all time-20 events precede all time-50 events.
  int last_tag_20 = -1;
  int last_tag_50 = -1;
  bool seen_50 = false;
  for (const auto& [when, t] : order) {
    if (when == 20u) {
      EXPECT_FALSE(seen_50);
      EXPECT_GT(t, last_tag_20);
      last_tag_20 = t;
    } else {
      ASSERT_EQ(when, 50u);
      seen_50 = true;
      EXPECT_GT(t, last_tag_50);
      last_tag_50 = t;
    }
  }
}

// Random stress against a reference: schedule a few thousand events with
// random delays (including duplicates and nested schedules), and check the
// fire sequence equals a stable sort of (when, schedule-index).
TEST(Simulator, RandomStressMatchesStableSort) {
  Simulator sim;
  Rng rng(123);
  struct Scheduled {
    SimTime when;
    uint64_t index;
  };
  std::vector<Scheduled> expected;
  std::vector<uint64_t> fired;
  uint64_t next_index = 0;

  // Nested scheduler: each event may schedule up to two follow-ups, so the
  // slab grows and shrinks while the heap is live.
  struct Spawner {
    Simulator* sim;
    Rng* rng;
    std::vector<Scheduled>* expected;
    std::vector<uint64_t>* fired;
    uint64_t* next_index;
    int depth;
    uint64_t my_index;
    void operator()() {
      fired->push_back(my_index);
      if (depth <= 0) {
        return;
      }
      const int children = static_cast<int>(rng->Uniform(3));  // 0..2
      for (int c = 0; c < children; ++c) {
        const SimTime delay = rng->Uniform(100);
        const uint64_t idx = (*next_index)++;
        expected->push_back(Scheduled{sim->Now() + delay, idx});
        sim->Schedule(delay, Spawner{sim, rng, expected, fired, next_index,
                                     depth - 1, idx});
      }
    }
  };

  for (int i = 0; i < 2000; ++i) {
    const SimTime delay = rng.Uniform(500);
    const uint64_t idx = next_index++;
    expected.push_back(Scheduled{delay, idx});
    sim.Schedule(delay,
                 Spawner{&sim, &rng, &expected, &fired, &next_index, 3, idx});
  }
  sim.RunUntilIdle();

  ASSERT_EQ(fired.size(), expected.size());
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     if (a.when != b.when) {
                       return a.when < b.when;
                     }
                     return a.index < b.index;
                   });
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].index) << "at position " << i;
  }
  EXPECT_EQ(sim.fired_events(), expected.size());
}

// Captures larger than InlineCallback's inline storage take the heap
// fallback; they must still run correctly and in order.
TEST(Simulator, OversizedCapturesFallBackToHeap) {
  Simulator sim;
  std::array<uint64_t, 12> big{};  // 96 bytes: exceeds kInlineSize
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = i + 1;
  }
  uint64_t sum = 0;
  std::vector<int> order;
  sim.Schedule(10, [&sum, &order, big]() {
    for (uint64_t v : big) {
      sum += v;
    }
    order.push_back(1);
  });
  sim.Schedule(10, [&order, big]() {
    (void)big;
    order.push_back(2);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sum, 78u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A prebuilt Callback passed by rvalue goes through the move-assign path
// into the slot (as opposed to in-place construction from a lambda).
TEST(Simulator, AcceptsPrebuiltCallbackByRvalue) {
  Simulator sim;
  int fired = 0;
  Simulator::Callback cb = [&fired]() { fired++; };
  sim.Schedule(5, std::move(cb));
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

// A callback that schedules enough events to force new slab chunks while it
// is executing must not be relocated mid-call (regression guard for the
// stable-address slab invariant).
TEST(Simulator, CallbackMaySpawnManyEventsWhileRunning) {
  Simulator sim;
  uint64_t fired = 0;
  sim.Schedule(1, [&sim, &fired]() {
    for (int i = 0; i < 5000; ++i) {  // far beyond one 256-slot chunk
      sim.Schedule(static_cast<SimTime>(1 + i), [&fired]() { fired++; });
    }
    fired++;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 5001u);
  EXPECT_EQ(sim.fired_events(), 5001u);
}

TEST(Simulator, CountsFiredEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(static_cast<SimTime>(i), []() {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.fired_events(), 7u);
}

// Power-cut semantics: DropPending discards everything still queued —
// including the captured state of the dropped callbacks — while leaving the
// simulator usable for post-crash recovery work.
TEST(Simulator, DropPendingDiscardsQueuedWork) {
  Simulator sim;
  int fired = 0;
  auto token = std::make_shared<int>(0);
  sim.Schedule(10, [&fired]() { fired++; });
  sim.Schedule(100, [&fired, token]() { fired++; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(sim.power_cuts(), 0u);
  sim.DropPending();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.power_cuts(), 1u);  // what parked-work owners compare
  // The dropped callback's capture was destroyed, not leaked.
  EXPECT_EQ(token.use_count(), 1);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  // Still schedulable after the cut.
  sim.Schedule(5, [&fired]() { fired++; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 55u);
}

TEST(FifoResource, ServesBackToBack) {
  FifoResource r(/*mb_per_s=*/1000.0, /*fixed_ns=*/0);
  // 1000 bytes at 1000 MB/s = 1000 ns.
  EXPECT_EQ(r.Occupy(0, 1000), 1000u);
  EXPECT_EQ(r.Occupy(0, 1000), 2000u);  // queues behind the first
  EXPECT_EQ(r.Occupy(5000, 1000), 6000u);  // idle gap, starts at earliest
}

TEST(FifoResource, FixedCostAdds) {
  FifoResource r(1000.0, 500);
  EXPECT_EQ(r.Occupy(0, 1000), 1500u);
}

TEST(FifoResource, OccupyForReservesDuration) {
  FifoResource r;
  EXPECT_EQ(r.OccupyFor(100, 50), 150u);
  EXPECT_EQ(r.OccupyFor(0, 10), 160u);  // busy until 150
  EXPECT_EQ(r.busy_ns(), 60u);
}

TEST(FifoResource, TracksBusyTime) {
  FifoResource r(100.0, 0);
  r.Occupy(0, 1000);  // 10 us
  r.Occupy(100000, 1000);
  EXPECT_EQ(r.busy_ns(), 20000u);
}

}  // namespace
}  // namespace biza
