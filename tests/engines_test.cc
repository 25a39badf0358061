// Tests of the baseline engines: dm-zap, RAIZN, mdraid, and their stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/convssd/conv_ssd.h"
#include "src/engines/dmzap.h"
#include "src/engines/join.h"
#include "src/engines/mdraid.h"
#include "src/engines/raizn.h"
#include "src/fault/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

ZnsConfig DevConfig(uint64_t seed = 1) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/32, /*zone_cap=*/512);
  config.seed = seed;
  return config;
}

Status BlockWriteSync(Simulator* sim, BlockTarget* t, uint64_t lbn,
                      std::vector<uint64_t> patterns,
                      WriteTag tag = WriteTag::kData) {
  Status out = InternalError("never completed");
  t->SubmitWrite(lbn, std::move(patterns), [&](const Status& s) { out = s; },
                 tag);
  sim->RunUntilIdle();
  return out;
}

Result<std::vector<uint64_t>> BlockReadSync(Simulator* sim, BlockTarget* t,
                                            uint64_t lbn, uint64_t n) {
  Status status = InternalError("never completed");
  std::vector<uint64_t> out;
  t->SubmitRead(lbn, n, [&](const Status& s, std::vector<uint64_t> p) {
    status = s;
    out = std::move(p);
  });
  sim->RunUntilIdle();
  if (!status.ok()) {
    return status;
  }
  return out;
}

// ---------------------------------------------------------------- join ----

TEST(Join, FiresOnceWhenGuardAndLastLegAreReleased) {
  int fired = 0;
  Status seen;
  auto join = MakeJoin([&](const Status& s) {
    fired++;
    seen = s;
  });
  join->Add();
  Leg(join)(OkStatus());  // a leg that completes synchronously
  EXPECT_EQ(fired, 0);    // the dispatch guard still holds
  join->Add(2);
  Leg(join)(DataLossError("first"));
  join->Done();  // the dispatch guard
  EXPECT_EQ(fired, 0);
  Leg(join)(WriteFailureError("second"));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen.code(), ErrorCode::kDataLoss);  // the first error wins
}

TEST(Join, ReadFormFillsRunsAndBlocks) {
  Status seen = InternalError("never fired");
  std::vector<uint64_t> got;
  auto join = MakeReadJoin(5, [&](const Status& s, std::vector<uint64_t> out) {
    seen = s;
    got = std::move(out);
  });
  join->Add(3);
  RunLeg(join, 1)(OkStatus(), {7, 8});
  BlockLeg(join, 4)(OkStatus(), 9);
  BlockLeg(join, 0)(DataLossError("lost"), 5);  // a failed leg fills nothing
  join->Done();
  EXPECT_EQ(seen.code(), ErrorCode::kDataLoss);
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 7, 8, 0, 9}));
}

// ------------------------------------------------------- request front ----

// BIZA, ZapRAID, mdraid and dm-zap admit through one RequestFront: an empty
// request, or one that runs past the capacity, fails with kOutOfRange.
TEST(RequestFront, RejectsEmptyAndOutOfRangeRequests) {
  for (PlatformKind kind : {PlatformKind::kBiza, PlatformKind::kZapRaid,
                            PlatformKind::kMdraidConv,
                            PlatformKind::kDmzapRaizn}) {
    SCOPED_TRACE(PlatformKindName(kind));
    Simulator sim;
    PlatformConfig config;
    config.zns = DevConfig();
    config.MatchConvCapacity();
    auto platform = Platform::Create(&sim, kind, config);
    BlockTarget* t = platform->block();
    const uint64_t cap = t->capacity_blocks();
    EXPECT_EQ(BlockWriteSync(&sim, t, cap, {1}).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(BlockWriteSync(&sim, t, cap - 1, {1, 2}).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(BlockWriteSync(&sim, t, 0, {}).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(BlockReadSync(&sim, t, cap - 1, 2).status().code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(BlockReadSync(&sim, t, 0, 0).status().code(),
              ErrorCode::kOutOfRange);
    // lbn + nblocks wraps past zero here; it must not read as in range.
    const uint64_t top = std::numeric_limits<uint64_t>::max();
    EXPECT_EQ(BlockWriteSync(&sim, t, top, {1}).code(),
              ErrorCode::kOutOfRange);
    EXPECT_EQ(BlockReadSync(&sim, t, top, 1).status().code(),
              ErrorCode::kOutOfRange);
    // The last block is inside.
    EXPECT_TRUE(BlockWriteSync(&sim, t, cap - 1, {7}).ok());
    const auto last = BlockReadSync(&sim, t, cap - 1, 1);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ((*last)[0], 7u);
  }
}

// -------------------------------------------------------------- dm-zap ----

struct DmZapFixture {
  Simulator sim;
  std::unique_ptr<ZnsDevice> dev;
  std::unique_ptr<DmZap> dmzap;

  explicit DmZapFixture(DmZapConfig config = {},
                        const ZnsConfig& dev_config = DevConfig()) {
    dev = std::make_unique<ZnsDevice>(&sim, dev_config);
    dmzap = std::make_unique<DmZap>(&sim, dev.get(), config);
  }
};

TEST(DmZap, ExposesFractionOfCapacity) {
  DmZapFixture f;
  EXPECT_EQ(f.dmzap->capacity_blocks(),
            static_cast<uint64_t>(32 * 512 * 0.80));
}

TEST(DmZap, RandomWriteReadRoundTrip) {
  DmZapFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), 1000, {5, 6, 7}).ok());
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), 10, {1}).ok());
  auto r = BlockReadSync(&f.sim, f.dmzap.get(), 1000, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{5, 6, 7}));
}

TEST(DmZap, OverwriteInvalidatesOldMapping) {
  DmZapFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), 42, {1}).ok());
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), 42, {2}).ok());
  auto r = BlockReadSync(&f.sim, f.dmzap.get(), 42, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 2u);
}

TEST(DmZap, NeverTriggersDeviceWriteFailures) {
  // dm-zap's one-in-flight-per-zone discipline must make every device write
  // sequential even under dispatch jitter.
  DmZapFixture f;
  Rng rng(9);
  int pending = 0;
  for (int i = 0; i < 500; ++i) {
    const uint64_t lbn = rng.Uniform(f.dmzap->capacity_blocks() - 8);
    pending++;
    f.dmzap->SubmitWrite(lbn, std::vector<uint64_t>(8, rng.Next()),
                         [&pending](const Status& s) {
                           EXPECT_TRUE(s.ok());
                           pending--;
                         },
                         WriteTag::kData);
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(pending, 0);
  EXPECT_EQ(f.dev->stats().write_failures, 0u);
}

TEST(DmZap, GcReclaimsInvalidatedSpace) {
  DmZapConfig config;
  config.exposed_capacity_ratio = 0.70;
  DmZapFixture f(config);
  // Interleave a hot region (overwritten, creating garbage) with cold
  // blocks (staying valid) so GC victims carry valid data to migrate.
  Rng rng(3);
  const uint64_t region = 2048;
  for (int round = 0; round < 20; ++round) {
    for (uint64_t lbn = 0; lbn < region; lbn += 64) {
      ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), lbn,
                                 std::vector<uint64_t>(64, rng.Next()))
                      .ok());
      // One cold block per 64 hot: lives forever, rides along in victims.
      const uint64_t cold = 4096 + (lbn / 64) + round * 32;
      ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), cold, {1}).ok());
    }
  }
  EXPECT_GT(f.dmzap->stats().gc_zone_resets, 0u);
  EXPECT_GT(f.dmzap->stats().gc_migrated_blocks, 0u);
}

// A full-geometry member (904 zones x 1077 MiB): dm-zap's L2P and reverse
// maps must cost memory in proportion to written data, not to capacity.
TEST(DmZap, FullGeometryStateScalesWithWrittenData) {
  DmZapFixture f({}, ZnsConfig::Zn540(ZnsConfig::kFullZn540Zones,
                                      ZnsConfig::kFullZn540ZoneBlocks));
  Rng rng(29);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t lbn = rng.Uniform(f.dmzap->capacity_blocks());
    const uint64_t pattern = rng.Next() | 1;
    truth[lbn] = pattern;
    ASSERT_TRUE(BlockWriteSync(&f.sim, f.dmzap.get(), lbn, {pattern}).ok());
  }
  for (const auto& [lbn, pattern] : truth) {
    auto r = BlockReadSync(&f.sim, f.dmzap.get(), lbn, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*r)[0], pattern) << "lbn " << lbn;
  }
  // The reverse maps' chunk tables (~1.9 MiB over 904 zones), the few
  // chunks written, and a 3000-page L2P.
  EXPECT_LT(f.dmzap->ResidentStateBytes(), 8 * kMiB);
}

TEST(DmZap, SpinlockCpuChargedForQueueing) {
  DmZapFixture f;
  // Concurrent writes to few zones queue behind the single in-flight slot;
  // queue time is charged as dm-zap CPU burn (§5.7).
  for (int i = 0; i < 64; ++i) {
    f.dmzap->SubmitWrite(static_cast<uint64_t>(i) * 8,
                         std::vector<uint64_t>(8, 1), [](const Status&) {},
                         WriteTag::kData);
  }
  f.sim.RunUntilIdle();
  EXPECT_GT(f.dmzap->cpu().total(), 100 * kMicrosecond);
}

// --------------------------------------------------------------- RAIZN ----

struct RaiznFixture {
  Simulator sim;
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::unique_ptr<Raizn> raizn;

  explicit RaiznFixture(RaiznConfig config = {}) {
    std::vector<ZnsDevice*> ptrs;
    for (int d = 0; d < 4; ++d) {
      devs.push_back(std::make_unique<ZnsDevice>(
          &sim, DevConfig(static_cast<uint64_t>(d) + 1)));
      ptrs.push_back(devs.back().get());
    }
    raizn = std::make_unique<Raizn>(&sim, ptrs, config);
  }

  Status ZoneWriteSync(uint32_t zone, uint64_t offset,
                       std::vector<uint64_t> patterns) {
    Status out = InternalError("never completed");
    raizn->SubmitZoneWrite(zone, offset, std::move(patterns),
                           [&](const Status& s) { out = s; }, WriteTag::kData);
    sim.RunUntilIdle();
    return out;
  }

  Result<std::vector<uint64_t>> ZoneReadSync(uint32_t zone, uint64_t offset,
                                             uint64_t n) {
    Status status = InternalError("never completed");
    std::vector<uint64_t> out;
    raizn->SubmitZoneRead(zone, offset, n,
                          [&](const Status& s, std::vector<uint64_t> p) {
                            status = s;
                            out = std::move(p);
                          });
    sim.RunUntilIdle();
    if (!status.ok()) {
      return status;
    }
    return out;
  }
};

TEST(Raizn, GeometryReservesMetadataZones) {
  RaiznFixture f;
  EXPECT_EQ(f.raizn->num_zones(), 30u);  // 32 - 2 metadata zones
  EXPECT_EQ(f.raizn->zone_capacity_blocks(), 512u * 3);  // k = 3
}

TEST(Raizn, SequentialWriteReadRoundTrip) {
  RaiznFixture f;
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 48; ++i) {
    data.push_back(i * 3 + 1);
  }
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, data).ok());
  auto r = f.ZoneReadSync(0, 0, 48);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST(Raizn, NonSequentialWriteRejected) {
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {1}).ok());
  EXPECT_EQ(f.ZoneWriteSync(0, 5, {2}).code(), ErrorCode::kWriteFailure);
}

TEST(Raizn, FullStripesWriteFinalParity) {
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {1, 2, 3, 4, 5, 6}).ok());  // 2 stripes
  EXPECT_EQ(f.raizn->stats().parity_written_blocks, 2u);
  EXPECT_EQ(f.raizn->stats().pp_written_blocks, 0u);  // no partial tail
}

TEST(Raizn, PartialStripePersistsPartialParity) {
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {1, 2}).ok());  // 2 of k=3 blocks
  EXPECT_EQ(f.raizn->stats().pp_written_blocks, 1u);
  EXPECT_EQ(f.raizn->stats().parity_written_blocks, 0u);
  // Completing the stripe writes the final parity.
  ASSERT_TRUE(f.ZoneWriteSync(0, 2, {3}).ok());
  EXPECT_EQ(f.raizn->stats().parity_written_blocks, 1u);
}

TEST(Raizn, ParityBufferAbsorbsPartialParities) {
  RaiznConfig config;
  config.parity_buffer_entries = 1024;
  RaiznFixture f(config);
  // Single-block writes issued back-to-back (chained on completion, without
  // draining the compensation-flush timer): every write updates the tail
  // PP in DRAM; the PPs die in the buffer when their stripes seal.
  uint64_t next = 0;
  std::function<void()> chain = [&]() {
    if (next >= 30) {
      return;
    }
    const uint64_t i = next++;
    f.raizn->SubmitZoneWrite(0, i, {i},
                             [&](const Status& s) {
                               EXPECT_TRUE(s.ok());
                               chain();
                             },
                             WriteTag::kData);
  };
  chain();
  f.sim.RunFor(10 * kMillisecond);  // writes finish; 30 ms sweep not yet due
  EXPECT_GT(f.raizn->stats().pp_absorbed, 0u);
  EXPECT_EQ(f.raizn->stats().pp_written_blocks, 0u);
  EXPECT_EQ(f.raizn->stats().parity_written_blocks, 10u);
  f.sim.RunUntilIdle();  // drain the sweep before teardown
}

TEST(Raizn, ParityEnablesReconstruction) {
  // The parity written for a sealed stripe must XOR-reconstruct any member.
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {0xA, 0xB, 0xC}).ok());
  // Stripe 0 lives at in-zone offset 0 of physical zone 0 on all devices;
  // parity drive for global stripe 0 is drive 3 (left-asymmetric).
  uint64_t xor_all = 0;
  for (int d = 0; d < 4; ++d) {
    auto pattern = f.devs[static_cast<size_t>(d)]->ReadPatternSync(0, 0);
    ASSERT_TRUE(pattern.ok()) << "device " << d;
    xor_all ^= *pattern;
  }
  EXPECT_EQ(xor_all, 0u);  // data ^ parity == 0 for XOR parity
}

TEST(Raizn, MetadataZonePingPongs) {
  RaiznConfig config;
  RaiznFixture f(config);
  // Drive enough partial-stripe writes that ONE device's 512-block
  // metadata zone fills (PPs rotate across the 4 devices with stripe
  // parity, so ~4 * 512 / (2/3) writes are needed). Four zones round-robin.
  uint64_t off[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4400; ++i) {
    const uint32_t zone = static_cast<uint32_t>(i % 4);
    ASSERT_TRUE(
        f.ZoneWriteSync(zone, off[zone], {static_cast<uint64_t>(i)}).ok());
    off[zone]++;
  }
  EXPECT_GT(f.raizn->stats().pp_written_blocks, 2048u);
  EXPECT_GT(f.raizn->stats().md_zone_resets, 0u);
}

TEST(Raizn, ResetZoneClearsAllDevices) {
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {1, 2, 3}).ok());
  ASSERT_TRUE(f.raizn->ResetZone(0).ok());
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {9}).ok());  // sequential from 0 again
  auto r = f.ZoneReadSync(0, 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 9u);
}

TEST(Raizn, FinishSealsPartialTail) {
  RaiznFixture f;
  ASSERT_TRUE(f.ZoneWriteSync(0, 0, {1, 2}).ok());
  ASSERT_TRUE(f.raizn->FinishZone(0).ok());
  f.sim.RunUntilIdle();
  // Tail parity written; subsequent writes rejected.
  EXPECT_EQ(f.raizn->stats().parity_written_blocks, 1u);
  EXPECT_EQ(f.ZoneWriteSync(0, 2, {3}).code(), ErrorCode::kWriteFailure);
}

// -------------------------------------------------------------- mdraid ----

struct MdraidFixture {
  Simulator sim;
  FaultInjector fault;  // empty plan: invisible to non-fault tests
  std::vector<std::unique_ptr<ConvSsd>> devs;
  std::unique_ptr<Mdraid> mdraid;

  explicit MdraidFixture(MdraidConfig config = {}) {
    std::vector<BlockTarget*> children;
    for (int d = 0; d < 4; ++d) {
      ConvSsdConfig cc;
      cc.capacity_blocks = 8192;
      cc.pages_per_flash_block = 256;
      cc.seed = static_cast<uint64_t>(d) + 1;
      devs.push_back(std::make_unique<ConvSsd>(&sim, cc));
      devs.back()->AttachFaultInjector(&fault, d);
      children.push_back(devs.back().get());
    }
    mdraid = std::make_unique<Mdraid>(&sim, children, config);
  }

  // Provisions a fresh spare child for RebuildChild.
  BlockTarget* AddSpare() {
    ConvSsdConfig cc;
    cc.capacity_blocks = 8192;
    cc.pages_per_flash_block = 256;
    cc.seed = 99;
    devs.push_back(std::make_unique<ConvSsd>(&sim, cc));
    devs.back()->AttachFaultInjector(&fault, static_cast<int>(devs.size()) - 1);
    return devs.back().get();
  }
};

TEST(Mdraid, CapacityIsDataDrives) {
  MdraidFixture f;
  EXPECT_EQ(f.mdraid->capacity_blocks(), 8192u * 3);
}

TEST(Mdraid, WriteReadThroughCache) {
  MdraidFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 100, {1, 2, 3, 4}).ok());
  auto r = BlockReadSync(&f.sim, f.mdraid.get(), 100, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST(Mdraid, FlushBuffersPersistsDirtyStripes) {
  MdraidFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0,
                             std::vector<uint64_t>(48, 7))
                  .ok());
  bool flushed = false;
  f.mdraid->FlushBuffers([&flushed]() { flushed = true; });
  f.sim.RunUntilIdle();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(f.mdraid->dirty_blocks(), 0u);
  EXPECT_GT(f.mdraid->stats().flushed_data_blocks, 0u);
  EXPECT_GT(f.mdraid->stats().flushed_parity_blocks, 0u);
  // Data persisted on the children and still readable.
  auto r = BlockReadSync(&f.sim, f.mdraid.get(), 0, 48);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[13], 7u);
}

TEST(Mdraid, FullStripeWritesAvoidRmwReads) {
  MdraidFixture f;
  // 48 blocks = 16 full stripes (k = 3), aligned.
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0,
                             std::vector<uint64_t>(48, 1))
                  .ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.mdraid->stats().rmw_read_blocks, 0u);
  EXPECT_GT(f.mdraid->stats().full_stripe_flushes, 0u);
}

TEST(Mdraid, PartialStripeWritesUseReconstructWrite) {
  MdraidFixture f;
  // Prime the stripe with known data, flush, then dirty one block of it.
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {1, 2, 3}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 1, {99}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  EXPECT_GT(f.mdraid->stats().partial_stripe_flushes, 0u);
  EXPECT_GT(f.mdraid->stats().rmw_read_blocks, 0u);
}

TEST(Mdraid, ParityConsistentAfterPartialFlush) {
  MdraidFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {1, 2, 3}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 1, {99}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  // XOR of the three data children and the parity child must be zero.
  // Stripe 0: data drives 0..2 at offset 0, parity drive 3.
  uint64_t xor_all = 0;
  for (int d = 0; d < 4; ++d) {
    auto pattern = f.devs[static_cast<size_t>(d)]->ReadPatternSync(0);
    ASSERT_TRUE(pattern.ok());
    xor_all ^= *pattern;
  }
  EXPECT_EQ(xor_all, 0u);
}

TEST(Mdraid, DegradedReadReconstructs) {
  MdraidFixture f;
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {11, 22, 33}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  // Fail the child holding lbn 1 (stripe 0, slot 1 -> drive 1).
  f.mdraid->SetChildFailed(1, true);
  auto r = BlockReadSync(&f.sim, f.mdraid.get(), 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 22u);
}

TEST(Mdraid, DegradedRandomReadsAllReconstruct) {
  MdraidFixture f;
  Rng rng(6);
  std::vector<uint64_t> truth(3000);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next();
  }
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 50) {
    std::vector<uint64_t> chunk(truth.begin() + static_cast<long>(lbn),
                                truth.begin() + static_cast<long>(lbn + 50));
    ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), lbn, std::move(chunk)).ok());
  }
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  f.mdraid->SetChildFailed(2, true);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 83) {
    auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
  }
}

// Regression for the degraded-flush bug: a partial flush whose stripe has a
// non-dirty slot on the failed child must reconstruct that slot's old value
// from parity (old parity XOR surviving slots), not treat it as zero.
TEST(Mdraid, PartialFlushReconstructsSlotOnFailedChild) {
  MdraidFixture f;
  // Stripe 0 = lbns 0..2 on children 0..2 (parity on child 3).
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {10, 20, 30}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  f.mdraid->SetChildFailed(1, true);
  // Dirty only slot 0; slot 1 lives solely on the dead child + parity now.
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {11}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  // The flush reconstructed the lost slot from old parity + survivors.
  EXPECT_GT(f.mdraid->stats().rmw_read_blocks, 0u);
  auto r = BlockReadSync(&f.sim, f.mdraid.get(), 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 11u);
  // lbn 1's old value must still reconstruct through the *new* parity.
  r = BlockReadSync(&f.sim, f.mdraid.get(), 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 20u);
  r = BlockReadSync(&f.sim, f.mdraid.get(), 2, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 30u);
  // Dirtying the failed child's own slot: the write is skipped (counted as
  // degraded) and the value survives through parity alone.
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 1, {21}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  EXPECT_GT(f.mdraid->stats().degraded_writes, 0u);
  r = BlockReadSync(&f.sim, f.mdraid.get(), 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 21u);
}

TEST(Mdraid, TransientChildErrorsRetried) {
  MdraidFixture f;
  f.fault.AddWriteErrors(0, 2);
  ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), 0, {1, 2, 3}).ok());
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  EXPECT_GT(f.fault.stats().injected_write_errors, 0u);
  EXPECT_GT(f.mdraid->stats().write_retries, 0u);
  // After the flush the stripe left the cache, so this read hits child 0.
  f.fault.AddReadErrors(0, 2);
  auto r = BlockReadSync(&f.sim, f.mdraid.get(), 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 1u);
  EXPECT_GT(f.mdraid->stats().read_retries, 0u);
}

TEST(Mdraid, OnlineRebuildRestoresFailedChild) {
  MdraidFixture f;
  Rng rng(9);
  std::vector<uint64_t> truth(3000);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next() | 1;
  }
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 50) {
    std::vector<uint64_t> chunk(truth.begin() + static_cast<long>(lbn),
                                truth.begin() + static_cast<long>(lbn + 50));
    ASSERT_TRUE(
        BlockWriteSync(&f.sim, f.mdraid.get(), lbn, std::move(chunk)).ok());
  }
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();

  f.mdraid->SetChildFailed(2, true);
  // Degraded overwrites while the child is down.
  for (uint64_t lbn = 0; lbn < 60; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(BlockWriteSync(&f.sim, f.mdraid.get(), lbn, {truth[lbn]}).ok());
  }

  ASSERT_TRUE(f.mdraid->RebuildChild(2, f.AddSpare()).ok());
  EXPECT_TRUE(f.mdraid->rebuild().active);
  f.sim.RunUntilIdle();
  EXPECT_FALSE(f.mdraid->rebuild().active);
  EXPECT_GT(f.mdraid->rebuild().chunks_migrated, 0u);
  EXPECT_GT(f.mdraid->rebuild().finished_ns, f.mdraid->rebuild().started_ns);

  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 71) {
    auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " after rebuild";
  }
  // Redundancy restored: losing a different child must still reconstruct —
  // the rebuilt child now carries correct data *and* parity blocks.
  f.mdraid->SetChildFailed(0, true);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 83) {
    auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " degraded post-rebuild";
  }
}

// The rebuild reconstructs only stripes some child write touched (md's
// write-intent bitmap): a never-written stripe reads zero on every member,
// the spare included. Writes land healthy and degraded, scattered and in
// runs; the sweep must migrate exactly the distinct stripes written and
// leave every block, written or not, readable with full redundancy.
TEST(Mdraid, RebuildSweepsOnlyWrittenStripes) {
  MdraidFixture f;
  Rng rng(29);
  const uint64_t capacity = f.mdraid->capacity_blocks();
  std::vector<uint64_t> truth(capacity, 0);
  std::vector<bool> stripe_written(capacity / 3, false);
  auto write = [&](uint64_t lbn, uint64_t n) {
    std::vector<uint64_t> patterns(n);
    for (uint64_t i = 0; i < n; ++i) {
      truth[lbn + i] = patterns[i] = rng.Next() | 1;
      stripe_written[(lbn + i) / 3] = true;
    }
    ASSERT_TRUE(
        BlockWriteSync(&f.sim, f.mdraid.get(), lbn, std::move(patterns)).ok());
  };
  for (int i = 0; i < 300; ++i) {
    write(rng.Uniform(capacity), 1);
  }
  for (int i = 0; i < 6; ++i) {
    write(rng.Uniform(capacity - 40), 40);
  }
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  f.mdraid->SetChildFailed(1, true);
  for (int i = 0; i < 40; ++i) {
    write(rng.Uniform(capacity), 1);  // degraded: child 1 gets no write
  }
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();
  const uint64_t written = static_cast<uint64_t>(
      std::count(stripe_written.begin(), stripe_written.end(), true));

  ASSERT_TRUE(f.mdraid->RebuildChild(1, f.AddSpare()).ok());
  f.sim.RunUntilIdle();
  EXPECT_FALSE(f.mdraid->rebuild().active);
  EXPECT_GT(f.mdraid->rebuild().finished_ns, f.mdraid->rebuild().started_ns);
  EXPECT_EQ(f.mdraid->rebuild().chunks_migrated, written);
  EXPECT_LT(written, capacity / 3);

  auto check_all = [&](const char* phase) {
    for (uint64_t lbn = 0; lbn < capacity; lbn += 64) {
      auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 64);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      for (uint64_t i = 0; i < 64; ++i) {
        ASSERT_EQ((*r)[i], truth[lbn + i]) << "lbn " << lbn + i << " " << phase;
      }
    }
  };
  check_all("after rebuild");
  // Redundancy restored on written and never-written stripes alike.
  f.mdraid->SetChildFailed(3, true);
  check_all("degraded after rebuild");
}

// The replacement dies 300 us into the sweep. The sweep must end with the
// child still failed, not report the rebuild finished, and every block must
// still read back (degraded) right. The child can then be replaced again.
TEST(Mdraid, RebuildEndsWhenReplacementDies) {
  MdraidFixture f;
  Rng rng(19);
  std::vector<uint64_t> truth(8192);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 64) {
    std::vector<uint64_t> chunk(64);
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      truth[lbn + i] = chunk[i] = rng.Next() | 1;
    }
    ASSERT_TRUE(
        BlockWriteSync(&f.sim, f.mdraid.get(), lbn, std::move(chunk)).ok());
  }
  f.mdraid->FlushBuffers([]() {});
  f.sim.RunUntilIdle();

  f.mdraid->SetChildFailed(1, true);
  ASSERT_TRUE(f.mdraid->RebuildChild(1, f.AddSpare()).ok());
  f.fault.KillDeviceAt(4, f.sim.Now() + 300 * kMicrosecond);
  f.sim.RunUntilIdle();

  EXPECT_GT(f.fault.stats().unavailable_rejections, 0u);
  EXPECT_FALSE(f.mdraid->rebuild().active);
  EXPECT_EQ(f.mdraid->rebuild().finished_ns, 0u);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 1);
    ASSERT_TRUE(r.ok()) << "lbn " << lbn << ": " << r.status().ToString();
    ASSERT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
  }

  // Still failed, so a second spare may take the slot.
  ASSERT_TRUE(f.mdraid->RebuildChild(1, f.AddSpare()).ok());
  f.sim.RunUntilIdle();
  EXPECT_GT(f.mdraid->rebuild().finished_ns, f.mdraid->rebuild().started_ns);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 7) {
    auto r = BlockReadSync(&f.sim, f.mdraid.get(), lbn, 1);
    ASSERT_TRUE(r.ok()) << "lbn " << lbn << ": " << r.status().ToString();
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " after rebuild";
  }
}

TEST(Mdraid, TimerFlushPersistsWithoutExplicitFlush) {
  MdraidConfig config;
  config.flush_interval_ns = 2 * kMillisecond;
  MdraidFixture f(config);
  // Submit without draining (RunUntilIdle would fast-forward the timer).
  bool done = false;
  f.mdraid->SubmitWrite(0, {1, 2, 3}, [&done](const Status& s) {
    EXPECT_TRUE(s.ok());
    done = true;
  }, WriteTag::kData);
  f.sim.RunFor(500 * kMicrosecond);
  EXPECT_TRUE(done);
  EXPECT_GT(f.mdraid->dirty_blocks(), 0u);  // timer (2 ms) not fired yet
  f.sim.RunFor(20 * kMillisecond);
  f.sim.RunUntilIdle();
  EXPECT_EQ(f.mdraid->dirty_blocks(), 0u);
}

TEST(Mdraid, StripeCacheAbsorbsHotOverwrites) {
  MdraidConfig config;
  config.flush_interval_ns = 100 * kMillisecond;  // far beyond the test span
  MdraidFixture f(config);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    f.mdraid->SubmitWrite(5, {static_cast<uint64_t>(i)},
                          [&completed](const Status& s) {
                            EXPECT_TRUE(s.ok());
                            completed++;
                          },
                          WriteTag::kData);
    f.sim.RunFor(10 * kMicrosecond);
  }
  f.sim.RunFor(kMillisecond);
  EXPECT_EQ(completed, 100);
  // All hits coalesced in the cache: nothing flushed yet.
  EXPECT_EQ(f.mdraid->stats().flushed_data_blocks, 0u);
  EXPECT_EQ(f.mdraid->dirty_blocks(), 1u);
  f.sim.RunUntilIdle();
}

// ------------------------------------------------------------- stacks ----

// A member read error never reads back as OK with wrong data: mdraid over
// dm-zap recovers through its child retry, dm-zap over RAIZN reports it.
TEST(EngineStacks, MemberReadErrorNeverReturnsWrongData) {
  for (PlatformKind kind :
       {PlatformKind::kMdraidDmzap, PlatformKind::kDmzapRaizn}) {
    SCOPED_TRACE(PlatformKindName(kind));
    Simulator sim;
    PlatformConfig config;
    config.zns = ZnsConfig::Zn540(/*num_zones=*/32, /*zone_cap=*/512);
    auto platform = Platform::Create(&sim, kind, config);
    std::vector<uint64_t> patterns(64);
    for (uint64_t i = 0; i < patterns.size(); ++i) {
      patterns[i] = 0xabc000 + i;
    }
    ASSERT_TRUE(BlockWriteSync(&sim, platform->block(), 0, patterns).ok());
    platform->Quiesce(&sim);
    platform->faults()->AddReadErrors(/*device=*/0, /*count=*/1);
    auto r = BlockReadSync(&sim, platform->block(), 0, 1);
    EXPECT_EQ(platform->faults()->stats().injected_read_errors, 1u);
    if (r.ok()) {
      EXPECT_EQ((*r)[0], 0xabc000u);
    }
    // mdraid retries the failed child read; dm-zap over RAIZN has no retry.
    EXPECT_EQ(r.ok(), kind == PlatformKind::kMdraidDmzap);
  }
}

}  // namespace
}  // namespace biza
