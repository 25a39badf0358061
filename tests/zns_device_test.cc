// Behavioural tests of the simulated ZNS SSD: zone state machine, the
// sequential-write contract, ZRWA window semantics (in-place updates,
// implicit commit, absorption accounting), APPEND, OOB, limits, and the
// hidden zone-to-channel mapping.
#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"
#include "tests/test_util.h"

namespace biza {
namespace {

ZnsConfig SmallConfig(uint32_t zrwa_blocks = 256) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/16,
                                      /*zone_capacity_blocks=*/1024);
  config.zrwa_blocks = zrwa_blocks;
  config.dispatch_jitter_ns = 0;  // deterministic unless a test wants jitter
  return config;
}

TEST(ZnsDevice, StartsEmpty) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  const ZoneInfo info = dev.Report(0);
  EXPECT_EQ(info.state, ZoneState::kEmpty);
  EXPECT_EQ(info.write_pointer, 0u);
  EXPECT_EQ(dev.open_zone_count(), 0);
}

TEST(ZnsDevice, SequentialWriteAdvancesWptr) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1, 2, 3}).ok());
  const ZoneInfo info = dev.Report(0);
  EXPECT_EQ(info.state, ZoneState::kOpen);
  EXPECT_EQ(info.write_pointer, 3u);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 3u);
}

TEST(ZnsDevice, NonSequentialWriteFails) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1}).ok());
  const Status status = ZnsWriteSync(&sim, &dev, 0, 5, {2});
  EXPECT_EQ(status.code(), ErrorCode::kWriteFailure);
  EXPECT_EQ(dev.stats().write_failures, 1u);
}

TEST(ZnsDevice, ReadBackMatches) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 3, 0, {11, 22, 33}).ok());
  auto result = ZnsReadSync(&sim, &dev, 3, 0, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<uint64_t>{11, 22, 33}));
}

TEST(ZnsDevice, UnwrittenBlocksReadZero) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  auto result = ZnsReadSync(&sim, &dev, 0, 10, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<uint64_t>{0, 0}));
}

TEST(ZnsDevice, WriteBeyondZoneCapacityRejected) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  const Status status =
      ZnsWriteSync(&sim, &dev, 0, 1023, std::vector<uint64_t>(2, 7));
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
}

TEST(ZnsDevice, ZoneBecomesFullAndRejectsWrites) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(
      ZnsWriteSync(&sim, &dev, 0, 0, std::vector<uint64_t>(1024, 9)).ok());
  EXPECT_EQ(dev.Report(0).state, ZoneState::kFull);
  EXPECT_EQ(dev.open_zone_count(), 0);
  const Status status = ZnsWriteSync(&sim, &dev, 0, 0, {1});
  EXPECT_EQ(status.code(), ErrorCode::kZoneStateError);
}

TEST(ZnsDevice, OpenZoneLimitEnforced) {
  Simulator sim;
  ZnsConfig config = SmallConfig();
  config.max_open_zones = 3;
  ZnsDevice dev(&sim, config);
  EXPECT_TRUE(dev.OpenZone(0, false).ok());
  EXPECT_TRUE(dev.OpenZone(1, false).ok());
  EXPECT_TRUE(dev.OpenZone(2, false).ok());
  EXPECT_EQ(dev.OpenZone(3, false).code(), ErrorCode::kResourceExhausted);
  // Implicit open over the limit also fails.
  EXPECT_EQ(ZnsWriteSync(&sim, &dev, 4, 0, {1}).code(),
            ErrorCode::kResourceExhausted);
  // Closing one frees a slot.
  EXPECT_TRUE(dev.CloseZone(1).ok());
  EXPECT_TRUE(dev.OpenZone(3, false).ok());
}

TEST(ZnsDevice, ResetRecyclesZone) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1, 2}).ok());
  ASSERT_TRUE(dev.ResetZone(0).ok());
  EXPECT_EQ(dev.Report(0).state, ZoneState::kEmpty);
  EXPECT_EQ(dev.Report(0).write_pointer, 0u);
  EXPECT_EQ(dev.stats().zone_resets, 1u);
  // Data is gone.
  auto result = ZnsReadSync(&sim, &dev, 0, 0, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 0u);
  // And the zone accepts writes from offset 0 again.
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {5}).ok());
}

TEST(ZnsDevice, FinishTransitionsToFull) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1}).ok());
  ASSERT_TRUE(dev.FinishZone(0).ok());
  EXPECT_EQ(dev.Report(0).state, ZoneState::kFull);
  EXPECT_EQ(dev.open_zone_count(), 0);
}

// ------------------------------------------------------------------ ZRWA --

TEST(ZnsDevice, ZrwaAllowsRandomWriteWithinWindow) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, /*with_zrwa=*/true).ok());
  // Out-of-order writes within the 256-block window succeed.
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 100, {1}).ok());
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 5, {2}).ok());
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 255, {3}).ok());
  EXPECT_EQ(dev.Report(0).write_pointer, 0u);  // nothing committed yet
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 0u);  // all in the buffer
}

TEST(ZnsDevice, ZrwaInPlaceUpdateIsAbsorbed) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 10, {1}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 10, {100ULL + i}).ok());
  }
  EXPECT_EQ(dev.stats().zrwa_absorbed_blocks, 5u);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 0u);
  auto result = ZnsReadSync(&sim, &dev, 0, 10, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 104u);  // latest content
}

TEST(ZnsDevice, ZrwaImplicitCommitShiftsWindow) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ASSERT_TRUE(
      ZnsWriteSync(&sim, &dev, 0, 0, std::vector<uint64_t>(256, 7)).ok());
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 0u);
  // Writing block 256 shifts the window right by one: block 0 is flushed
  // (Fig. 3b of the paper).
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 256, {8}).ok());
  EXPECT_EQ(dev.Report(0).write_pointer, 1u);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 1u);
  // Block 0 is now immutable: updating it fails (the §3.2 hazard).
  EXPECT_EQ(ZnsWriteSync(&sim, &dev, 0, 0, {9}).code(),
            ErrorCode::kWriteFailure);
  // Block 1 is still in the window and updatable.
  EXPECT_TRUE(ZnsWriteSync(&sim, &dev, 0, 1, {10}).ok());
}

TEST(ZnsDevice, ZrwaAbsorbedUpdateCountsOnceOnFlush) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {static_cast<uint64_t>(i)}).ok());
  }
  ASSERT_TRUE(dev.CommitZrwa(0, 1).ok());
  // Ten host writes, nine absorbed, ONE flash program.
  EXPECT_EQ(dev.stats().host_written_blocks, 10u);
  EXPECT_EQ(dev.stats().zrwa_absorbed_blocks, 9u);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 1u);
}

TEST(ZnsDevice, ExplicitCommitAdvancesFlushPointer) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, std::vector<uint64_t>(100, 3)).ok());
  ASSERT_TRUE(dev.CommitZrwa(0, 50).ok());
  EXPECT_EQ(dev.Report(0).write_pointer, 50u);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 50u);
  // Commit is idempotent below the flush pointer.
  EXPECT_TRUE(dev.CommitZrwa(0, 30).ok());
  EXPECT_EQ(dev.Report(0).write_pointer, 50u);
}

TEST(ZnsDevice, FinishFlushesZrwaBuffer) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, std::vector<uint64_t>(10, 4)).ok());
  ASSERT_TRUE(dev.FinishZone(0).ok());
  EXPECT_EQ(dev.Report(0).state, ZoneState::kFull);
  EXPECT_EQ(dev.stats().flash_programmed_blocks, 10u);
}

TEST(ZnsDevice, BufferedReadsServeFromDram) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {42}).ok());
  const SimTime before = sim.Now();
  auto result = ZnsReadSync(&sim, &dev, 0, 0, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 42u);
  // DRAM read path: far faster than a flash read (~30 us).
  EXPECT_LT(sim.Now() - before, 20 * kMicrosecond);
}

TEST(ZnsDevice, ZrwaModeConflictRejected) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  EXPECT_EQ(dev.OpenZone(0, false).code(), ErrorCode::kZoneStateError);
}

TEST(ZnsDevice, ZrwaUnsupportedWhenConfiguredOff) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig(/*zrwa_blocks=*/0));
  EXPECT_EQ(dev.OpenZone(0, true).code(), ErrorCode::kUnimplemented);
}

// ---------------------------------------------------------------- APPEND --

TEST(ZnsDevice, AppendReturnsAssignedOffset) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  auto first = ZnsAppendSync(&sim, &dev, 0, {1, 2});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  auto second = ZnsAppendSync(&sim, &dev, 0, {3});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2u);
}

TEST(ZnsDevice, AppendAbortsOnZrwaZone) {
  // NVMe ZNS 1.1a: APPEND and ZRWA are mutually exclusive (§3.2).
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  auto result = ZnsAppendSync(&sim, &dev, 0, {1});
  EXPECT_EQ(result.status().code(), ErrorCode::kZoneStateError);
}

// ------------------------------------------------------------------- OOB --

TEST(ZnsDevice, OobPersistsWithBlocks) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  std::vector<OobRecord> oobs{{77, 5, WriteTag::kData}, {88, 5, WriteTag::kParity}};
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1, 2}, oobs).ok());
  auto oob0 = dev.ReadOobSync(0, 0);
  ASSERT_TRUE(oob0.ok());
  EXPECT_EQ(oob0->lbn, 77u);
  EXPECT_EQ(oob0->sn, 5u);
  auto oob1 = dev.ReadOobSync(0, 1);
  ASSERT_TRUE(oob1.ok());
  EXPECT_EQ(oob1->lbn, 88u);
  EXPECT_EQ(dev.ReadOobSync(0, 2).status().code(), ErrorCode::kNotFound);
}

TEST(ZnsDevice, PerTagFlashAccounting) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  std::vector<OobRecord> oobs{{1, 0, WriteTag::kData},
                              {2, 0, WriteTag::kParity},
                              {3, 0, WriteTag::kGcData}};
  ASSERT_TRUE(ZnsWriteSync(&sim, &dev, 0, 0, {1, 2, 3}, oobs).ok());
  EXPECT_EQ(dev.stats().flash_by_tag[static_cast<int>(WriteTag::kData)], 1u);
  EXPECT_EQ(dev.stats().flash_by_tag[static_cast<int>(WriteTag::kParity)], 1u);
  EXPECT_EQ(dev.stats().flash_by_tag[static_cast<int>(WriteTag::kGcData)], 1u);
}

// -------------------------------------------------------- channel mapping --

TEST(ZnsDevice, RoundRobinChannelAssignment) {
  Simulator sim;
  ZnsConfig config = SmallConfig();
  config.wear_level_deviation = 0.0;
  ZnsDevice dev(&sim, config);
  for (uint32_t z = 0; z < 8; ++z) {
    ASSERT_TRUE(dev.OpenZone(z, false).ok());
    EXPECT_EQ(dev.DebugChannelOf(z),
              static_cast<int>(z % static_cast<uint32_t>(
                                       config.timing.num_channels)));
  }
}

TEST(ZnsDevice, WearLevelingDeviatesSometimes) {
  Simulator sim;
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/512, /*zone_cap=*/64);
  config.max_open_zones = 600;
  config.wear_level_deviation = 0.3;
  ZnsDevice dev(&sim, config);
  int deviations = 0;
  for (uint32_t z = 0; z < 512; ++z) {
    ASSERT_TRUE(dev.OpenZone(z, false).ok());
    if (dev.DebugChannelOf(z) !=
        static_cast<int>(z % static_cast<uint32_t>(config.timing.num_channels))) {
      deviations++;
    }
  }
  // ~30% deviate (a deviation can also land on the round-robin channel by
  // chance, so the observed rate is slightly below 0.3).
  EXPECT_GT(deviations, 80);
  EXPECT_LT(deviations, 200);
}

TEST(ZnsDevice, ChannelClearedOnReset) {
  Simulator sim;
  ZnsDevice dev(&sim, SmallConfig());
  ASSERT_TRUE(dev.OpenZone(0, false).ok());
  EXPECT_GE(dev.DebugChannelOf(0), 0);
  ASSERT_TRUE(dev.ResetZone(0).ok());
  EXPECT_EQ(dev.DebugChannelOf(0), -1);
}

// -------------------------------------------------- reordering (the §3.2) --

TEST(ZnsDevice, DispatchJitterBreaksNaiveParallelSequentialWrites) {
  // A naive writer that submits sequential writes in parallel (no ordering
  // control) must observe write failures under I/O-stack reordering. This
  // is the §3.2 failure BIZA's scheduler exists to prevent.
  Simulator sim;
  ZnsConfig config = SmallConfig();
  config.dispatch_jitter_ns = 20 * kMicrosecond;
  config.seed = 3;
  ZnsDevice dev(&sim, config);
  int failures = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    dev.SubmitWrite(0, i, {i}, {}, [&failures](const Status& status) {
      if (!status.ok()) {
        failures++;
      }
    });
  }
  sim.RunUntilIdle();
  EXPECT_GT(failures, 0);
}

TEST(ZnsDevice, ZrwaWindowToleratesReorderWithinWindow) {
  // With ZRWA, arbitrary arrival order within the window is safe.
  Simulator sim;
  ZnsConfig config = SmallConfig();
  config.dispatch_jitter_ns = 20 * kMicrosecond;
  config.seed = 3;
  ZnsDevice dev(&sim, config);
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  int failures = 0;
  for (uint64_t i = 0; i < 256; ++i) {
    dev.SubmitWrite(0, i, {i}, {}, [&failures](const Status& status) {
      if (!status.ok()) {
        failures++;
      }
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace biza
