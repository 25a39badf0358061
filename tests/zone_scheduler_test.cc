// Tests of the ZRWA-aware sliding-window scheduler (§4.4), including the
// central reorder-safety property: under arbitrary dispatch jitter, no
// scheduled write ever faults, while a naive parallel writer does.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/biza/zone_scheduler.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

ZnsConfig DeviceConfig(SimTime jitter = 0, uint64_t seed = 1) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, /*zone_cap=*/2048);
  config.dispatch_jitter_ns = jitter;
  config.seed = seed;
  return config;
}

struct Fixture {
  Simulator sim;
  std::unique_ptr<ZnsDevice> dev;
  std::unique_ptr<ZoneScheduler> sched;

  explicit Fixture(const ZnsConfig& config) {
    dev = std::make_unique<ZnsDevice>(&sim, config);
    EXPECT_TRUE(dev->OpenZone(0, /*with_zrwa=*/true).ok());
    sched = std::make_unique<ZoneScheduler>(dev.get(), 0);
  }
};

TEST(ZoneScheduler, AllocateIsContiguous) {
  Fixture f(DeviceConfig());
  EXPECT_EQ(f.sched->Allocate(4), 0u);
  EXPECT_EQ(f.sched->Allocate(2), 4u);
  EXPECT_EQ(f.sched->free_blocks(), 2042u);
}

TEST(ZoneScheduler, WriteWithinWindowCompletes) {
  Fixture f(DeviceConfig());
  const uint64_t off = f.sched->Allocate(3);
  int completions = 0;
  f.sched->SubmitWrite(off, {1, 2, 3}, {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    completions++;
  });
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(f.sched->Idle());
}

TEST(ZoneScheduler, WritesBeyondWindowQueueUntilItSlides) {
  Fixture f(DeviceConfig());
  // Allocate well past the 256-block window and submit everything at once.
  int completions = 0;
  int failures = 0;
  for (int i = 0; i < 600; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {static_cast<uint64_t>(i)}, {},
                         [&](const Status& s) {
                           completions++;
                           if (!s.ok()) {
                             failures++;
                           }
                         });
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, 600);
  EXPECT_EQ(failures, 0);
  EXPECT_GT(f.sched->win_start(), 0u);  // the window slid
}

TEST(ZoneScheduler, InPlaceUpdateWithinWindow) {
  Fixture f(DeviceConfig());
  const uint64_t off = f.sched->Allocate(1);
  f.sched->SubmitWrite(off, {10}, {}, [](const Status&) {});
  f.sim.RunUntilIdle();
  ASSERT_TRUE(f.sched->CanUpdateInPlace(off));
  int ok = 0;
  f.sched->SubmitWrite(off, {20}, {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    ok++;
  });
  f.sim.RunUntilIdle();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(f.sched->PatternAt(off), 20u);
  EXPECT_EQ(f.dev->stats().zrwa_absorbed_blocks, 1u);
}

TEST(ZoneScheduler, CannotUpdateBehindWindow) {
  Fixture f(DeviceConfig());
  // Fill far past the window so block 0 is flushed.
  for (int i = 0; i < 600; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {1}, {}, [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  EXPECT_FALSE(f.sched->CanUpdateInPlace(0));
}

TEST(ZoneScheduler, PatternTrackingSurvivesWindowSlide) {
  Fixture f(DeviceConfig());
  for (uint64_t i = 0; i < 500; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {i * 7}, {}, [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  for (uint64_t i = 0; i < 500; i += 37) {
    EXPECT_EQ(f.sched->PatternAt(i), i * 7);
  }
}

TEST(ZoneScheduler, SealRequiresFullAllocationAndIdle) {
  Fixture f(DeviceConfig());
  f.sched->Allocate(10);
  EXPECT_EQ(f.sched->Seal().code(), ErrorCode::kFailedPrecondition);
}

TEST(ZoneScheduler, SealFlushesAndFullsZone) {
  Fixture f(DeviceConfig());
  const uint64_t cap = f.sched->capacity();
  for (uint64_t off = 0; off < cap; off += 64) {
    const uint64_t o = f.sched->Allocate(64);
    f.sched->SubmitWrite(o, std::vector<uint64_t>(64, off), {},
                         [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  ASSERT_TRUE(f.sched->Idle());
  ASSERT_TRUE(f.sched->Seal().ok());
  EXPECT_EQ(f.dev->Report(0).state, ZoneState::kFull);
  EXPECT_EQ(f.dev->stats().flash_programmed_blocks, cap);
}

TEST(ZoneScheduler, IdleAccountsUnsubmittedAllocations) {
  Fixture f(DeviceConfig());
  EXPECT_TRUE(f.sched->Idle());
  const uint64_t off = f.sched->Allocate(1);
  EXPECT_FALSE(f.sched->Idle());  // allocated, not yet submitted
  f.sched->SubmitWrite(off, {1}, {}, [](const Status&) {});
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.sched->Idle());
}

// ---- The §3.2/§4.4 property: reorder safety under arbitrary jitter -------

class ReorderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderPropertyTest, NoWriteFailuresUnderJitter) {
  const uint64_t seed = GetParam();
  ZnsConfig config = DeviceConfig(/*jitter=*/30 * kMicrosecond, seed);
  Fixture f(config);
  Rng rng(seed * 77 + 1);

  int failures = 0;
  int completions = 0;
  int expected = 0;
  // Mixed workload: appends racing ahead of the window plus in-place
  // updates to recently written blocks, all in flight simultaneously.
  for (int burst = 0; burst < 40; ++burst) {
    const int appends = static_cast<int>(1 + rng.Uniform(32));
    for (int i = 0; i < appends && f.sched->free_blocks() > 0; ++i) {
      const uint64_t off = f.sched->Allocate(1);
      expected++;
      f.sched->SubmitWrite(off, {rng.Next()}, {}, [&](const Status& s) {
        completions++;
        if (!s.ok()) {
          failures++;
        }
      });
    }
    // A few in-place updates to random updatable offsets.
    for (int i = 0; i < 8; ++i) {
      if (f.sched->alloc_ptr() == 0) {
        break;
      }
      const uint64_t off =
          f.sched->win_start() +
          rng.Uniform(f.sched->alloc_ptr() - f.sched->win_start());
      if (!f.sched->CanUpdateInPlace(off)) {
        continue;
      }
      expected++;
      f.sched->SubmitWrite(off, {rng.Next()}, {}, [&](const Status& s) {
        completions++;
        if (!s.ok()) {
          failures++;
        }
      });
    }
    // Let the simulation interleave a little before the next burst.
    f.sim.RunFor(rng.Uniform(200 * kMicrosecond));
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, expected);
  EXPECT_EQ(failures, 0) << "seed " << seed;
  EXPECT_EQ(f.dev->stats().write_failures, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// Same-block update ordering: content must equal the LAST submitted value
// even when several updates to one block are in flight.
TEST(ZoneScheduler, ConcurrentSameBlockUpdatesApplyInOrder) {
  ZnsConfig config = DeviceConfig(/*jitter=*/30 * kMicrosecond, /*seed=*/5);
  Fixture f(config);
  const uint64_t off = f.sched->Allocate(1);
  for (uint64_t v = 0; v <= 50; ++v) {
    f.sched->SubmitWrite(off, {v}, {}, [](const Status& s) {
      EXPECT_TRUE(s.ok());
    });
  }
  f.sim.RunUntilIdle();
  auto pattern = f.dev->ReadPatternSync(0, off);
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(*pattern, 50u);
}

// Pins the exact dispatch behaviour of Pump: which queued jobs reach the
// device, in what order and at what virtual time. Appends run past the
// window, hot in-place updates pile up on the same blocks at its head,
// dispatch jitter reorders completions, and an in-flight cap comes and goes
// mid-run. Every completion hashes (offset, length, virtual time) in
// completion order; after every submit and completion the queue depth and
// in-flight count join the hash, so a job dispatched one event early or
// late, or out of FIFO order, changes it. The literal was captured from the
// rescan-on-every-event scheduler this event-driven one replaced.
TEST(ZoneScheduler, DispatchSequencePinned) {
  Fixture f(DeviceConfig(/*jitter=*/30 * kMicrosecond, /*seed=*/7));
  Rng rng(2024);
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a
  auto mix = [&](uint64_t v) { hash = (hash ^ v) * 1099511628211ULL; };
  auto snapshot = [&] {
    mix(f.sim.Now());
    mix(f.sched->queue_depth());
    mix(f.sched->inflight());
  };
  int submitted = 0;
  int completed = 0;
  auto submit = [&](uint64_t offset, uint64_t n) {
    std::vector<uint64_t> patterns(n);
    for (uint64_t& p : patterns) {
      p = rng.Next();
    }
    submitted++;
    f.sched->SubmitWrite(offset, std::move(patterns), {},
                         [&, offset, n](const Status& s) {
                           EXPECT_TRUE(s.ok());
                           completed++;
                           mix(offset);
                           mix(n);
                           snapshot();
                         });
    snapshot();
  };
  for (int round = 0; round < 300; ++round) {
    if (round == 80) {
      f.sched->SetInflightCap(3);
    } else if (round == 160) {
      f.sched->SetInflightCap(0);
    } else if (round == 220) {
      f.sched->SetInflightCap(1);
    }
    const uint64_t ops = 1 + rng.Uniform(6);
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t n = 1 + rng.Uniform(8);
      if (rng.Uniform(3) == 0 && f.sched->free_blocks() >= n) {
        submit(f.sched->Allocate(n), n);  // may land past the window
        continue;
      }
      // In-place update inside a 16-block hot set at the window's head.
      const uint64_t head = f.sched->win_start();
      const uint64_t hot_end = std::min(f.sched->alloc_ptr(), head + 16);
      if (hot_end <= head) {
        continue;
      }
      const uint64_t offset = head + rng.Uniform(hot_end - head);
      submit(offset, std::min<uint64_t>(1 + rng.Uniform(4), hot_end - offset));
    }
    f.sim.RunFor(rng.Uniform(40 * kMicrosecond));
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(completed, submitted);
  EXPECT_TRUE(f.sched->Idle());
  EXPECT_EQ(f.dev->stats().write_failures, 0u);
  EXPECT_EQ(submitted, 1065);
  EXPECT_EQ(hash, 0x7c12858aac73e730ULL);
}

}  // namespace
}  // namespace biza

namespace biza {
namespace {

TEST(ZoneSchedulerSplit, JobsWiderThanWindowComplete) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, /*zone_cap=*/2048);
  config.zrwa_blocks = 64;  // narrow window
  config.dispatch_jitter_ns = 0;
  Simulator sim;
  ZnsDevice dev(&sim, config);
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ZoneScheduler sched(&dev, 0);
  // A single 500-block write (7.8x the window) must split and complete.
  const uint64_t off = sched.Allocate(500);
  std::vector<uint64_t> patterns(500);
  for (uint64_t i = 0; i < 500; ++i) {
    patterns[i] = i * 3 + 1;
  }
  int completions = 0;
  sched.SubmitWrite(off, std::move(patterns), {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    completions++;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(sched.Idle());
  for (uint64_t i = 0; i < 500; i += 61) {
    auto pattern = dev.ReadPatternSync(0, off + i);
    ASSERT_TRUE(pattern.ok());
    EXPECT_EQ(*pattern, i * 3 + 1);
  }
  EXPECT_EQ(dev.stats().write_failures, 0u);
}

}  // namespace
}  // namespace biza
