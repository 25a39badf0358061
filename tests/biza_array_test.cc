// Tests of the BIZA core engine: mapping integrity, ZRWA absorption, the
// zone group selector, GC (space reclamation, avoidance, backpressure),
// degraded reads, channel detection, and OOB crash recovery.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <unordered_map>

#include "src/biza/biza_array.h"
#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

ZnsConfig DevConfig(uint64_t seed, uint32_t num_zones = 48,
                    uint64_t zone_cap = 1024) {
  ZnsConfig config = ZnsConfig::Zn540(num_zones, zone_cap);
  config.seed = seed;
  return config;
}

// Zones the device reports EMPTY: the recount FreeZonesOf's counter must
// match after every transition (open, seal, GC reset, replace, recover).
uint64_t EmptyZones(const ZnsDevice& dev) {
  uint64_t empty = 0;
  for (uint32_t zone = 0; zone < dev.config().num_zones; ++zone) {
    if (dev.Report(zone).state == ZoneState::kEmpty) {
      empty++;
    }
  }
  return empty;
}

struct Fixture {
  Simulator sim;
  // Attached to every device: an empty plan injects nothing and draws no
  // RNG, so the fault plane is invisible to the non-fault tests.
  FaultInjector fault;
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::unique_ptr<BizaArray> array;

  explicit Fixture(BizaConfig config = {}, uint32_t num_zones = 48,
                   uint64_t zone_cap = 1024, double deviation = 0.0) {
    std::vector<ZnsDevice*> ptrs;
    for (int d = 0; d < 4; ++d) {
      ZnsConfig dc = DevConfig(static_cast<uint64_t>(d) + 1, num_zones, zone_cap);
      dc.wear_level_deviation = deviation;
      devs.push_back(std::make_unique<ZnsDevice>(&sim, dc));
      devs.back()->AttachFaultInjector(&fault, d);
      ptrs.push_back(devs.back().get());
    }
    array = std::make_unique<BizaArray>(&sim, ptrs, config);
  }

  Status WriteSync(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteTag tag = WriteTag::kData) {
    Status out = InternalError("never completed");
    array->SubmitWrite(lbn, std::move(patterns),
                       [&](const Status& s) { out = s; }, tag);
    sim.RunUntilIdle();
    return out;
  }

  Result<std::vector<uint64_t>> ReadSync(uint64_t lbn, uint64_t n) {
    Status status = InternalError("never completed");
    std::vector<uint64_t> out;
    array->SubmitRead(lbn, n, [&](const Status& s, std::vector<uint64_t> p) {
      status = s;
      out = std::move(p);
    });
    sim.RunUntilIdle();
    if (!status.ok()) {
      return status;
    }
    return out;
  }

  uint64_t TotalFlashWrites() const {
    uint64_t total = 0;
    for (const auto& dev : devs) {
      total += dev->stats().flash_programmed_blocks;
    }
    return total;
  }
};

TEST(BizaArray, ExposesConfiguredCapacity) {
  Fixture f;
  // 48 zones * 1024 blocks * k(3) * 0.70.
  EXPECT_EQ(f.array->capacity_blocks(),
            static_cast<uint64_t>(48 * 1024 * 3 * 0.70));
}

TEST(BizaArray, WriteReadRoundTrip) {
  Fixture f;
  ASSERT_TRUE(f.WriteSync(100, {1, 2, 3, 4, 5}).ok());
  auto r = f.ReadSync(100, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(BizaArray, UnwrittenReadsZero) {
  Fixture f;
  auto r = f.ReadSync(500, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<uint64_t>{0, 0}));
}

TEST(BizaArray, RandomWorkloadIntegrity) {
  Fixture f;
  Rng rng(11);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t lbn = rng.Uniform(20000);
    const uint64_t n = 1 + rng.Uniform(8);
    std::vector<uint64_t> patterns(n);
    for (uint64_t b = 0; b < n; ++b) {
      patterns[b] = rng.Next();
      truth[lbn + b] = patterns[b];
    }
    ASSERT_TRUE(f.WriteSync(lbn, std::move(patterns)).ok());
  }
  int checked = 0;
  for (const auto& [lbn, expected] : truth) {
    if (checked++ > 500) {
      break;
    }
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], expected) << "lbn " << lbn;
  }
}

TEST(BizaArray, HotUpdatesAbsorbedInZrwa) {
  Fixture f;
  // Heat up one block: after the ghost cache promotes it, updates are
  // absorbed in-place and generate no flash programs.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.WriteSync(7, {static_cast<uint64_t>(i)}).ok());
  }
  EXPECT_GT(f.array->stats().inplace_updates, 150u);
  uint64_t absorbed = 0;
  for (const auto& dev : f.devs) {
    absorbed += dev->stats().zrwa_absorbed_blocks;
  }
  EXPECT_GT(absorbed, 150u);
  auto r = f.ReadSync(7, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 199u);
}

TEST(BizaArray, PartialParityUpdatesInPlace) {
  Fixture f;
  // Single-block writes: every request refreshes the open stripe's PP in
  // place; PP flash writes only appear when windows slide.
  for (uint64_t i = 0; i < 90; ++i) {
    ASSERT_TRUE(f.WriteSync(i, {i}).ok());
  }
  EXPECT_GT(f.array->stats().parity_inplace_updates, 0u);
  // 90 blocks = 30 stripes; parity blocks allocated once per stripe.
  EXPECT_GE(f.array->stats().parity_writes, 30u);
}

TEST(BizaArray, SelectorClassifiesHotChunks) {
  Fixture f;
  ZipfGenerator zipf(2000, 0.99, 5);
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t lbn = zipf.Next();
    ASSERT_TRUE(f.WriteSync(lbn, {rng.Next()}).ok());
  }
  // The ghost cache must have promoted the zipf head.
  EXPECT_GT(f.array->stats().inplace_updates, 1000u);
}

TEST(BizaArray, SequentialThenOverwriteTriggersGcAndReclaims) {
  BizaConfig config;
  config.exposed_capacity_ratio = 0.60;
  Fixture f(config, /*num_zones=*/32, /*zone_cap=*/512);
  const uint64_t cap = f.array->capacity_blocks();
  Driver::Fill(&f.sim, f.array.get(), cap, 64, /*epoch=*/1);
  // Overwrite everything once more: old stripes invalidate, GC must run.
  Driver::Fill(&f.sim, f.array.get(), cap, 64, /*epoch=*/2);
  f.sim.RunUntilIdle();
  EXPECT_GT(f.array->stats().gc_runs, 0u);
  EXPECT_GT(f.array->stats().gc_zone_resets, 0u);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(f.array->FreeZonesOf(d), EmptyZones(*f.devs[d])) << "dev " << d;
  }
  // Integrity after GC.
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const uint64_t lbn = rng.Uniform(cap);
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], PatternFor(lbn, 2)) << "lbn " << lbn;
  }
}

TEST(BizaArray, BackpressureParksWritesInsteadOfFailing) {
  BizaConfig config;
  config.exposed_capacity_ratio = 0.62;  // tight enough to force stalls
  Fixture f(config, /*num_zones=*/24, /*zone_cap=*/512);
  const uint64_t cap = f.array->capacity_blocks();
  // Hammer overwrites at 3x capacity; everything must still complete OK.
  MicroWorkload wl(false, true, 8, cap, 13);
  Driver driver(&f.sim, f.array.get(), &wl, 16, /*verify_reads=*/true);
  auto report = driver.Run(3 * cap / 8, 600 * kSecond);
  EXPECT_EQ(report.requests_completed, 3 * cap / 8);
  EXPECT_GT(f.array->stats().gc_runs, 0u);
  // Verify a sample survived.
  MicroWorkload rl(false, false, 8, cap, 13);
  Driver reader(&f.sim, f.array.get(), &rl, 8, true);
  auto rreport = reader.Run(200, 30 * kSecond);
  EXPECT_EQ(rreport.verify_failures, 0u);
}

TEST(BizaArray, DegradedReadReconstructsFromParity) {
  Fixture f;
  Rng rng(10);
  std::vector<uint64_t> truth(600);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next();
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  for (int failed = 0; failed < 4; ++failed) {
    f.array->SetDeviceFailed(failed, true);
    for (uint64_t lbn = 0; lbn < truth.size(); lbn += 29) {
      auto r = f.ReadSync(lbn, 1);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ((*r)[0], truth[lbn])
          << "lbn " << lbn << " with device " << failed << " failed";
    }
    f.array->SetDeviceFailed(failed, false);
  }
  EXPECT_GT(f.array->stats().degraded_reads, 0u);
}

TEST(BizaArray, DegradedReadAfterInPlaceUpdates) {
  Fixture f;
  // In-place ZRWA updates must keep parity consistent for reconstruction.
  for (uint64_t lbn = 0; lbn < 30; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn}).ok());
  }
  for (int round = 0; round < 20; ++round) {
    for (uint64_t lbn = 0; lbn < 30; ++lbn) {
      ASSERT_TRUE(
          f.WriteSync(lbn, {lbn * 1000 + static_cast<uint64_t>(round)}).ok());
    }
  }
  ASSERT_GT(f.array->stats().inplace_updates, 0u);
  for (int failed = 0; failed < 4; ++failed) {
    f.array->SetDeviceFailed(failed, true);
    for (uint64_t lbn = 0; lbn < 30; ++lbn) {
      auto r = f.ReadSync(lbn, 1);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ((*r)[0], lbn * 1000 + 19)
          << "lbn " << lbn << " with device " << failed << " failed";
    }
    f.array->SetDeviceFailed(failed, false);
  }
}

// RAID 5 survives one dead member. With two, a chunk on a dead member whose
// stripe has a second erasure cannot be rebuilt, and the read must say so:
// XOR-ing the survivors would return a wrong value as OK.
TEST(BizaArray, DoubleFailureReadIsDataLossNotData) {
  Fixture f;
  std::vector<uint64_t> truth(300);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = (lbn + 1) * 0x9E3779B97F4A7C15ULL;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  f.array->SetDeviceFailed(1, true);
  f.array->SetDeviceFailed(2, true);
  int right = 0;
  int lost = 0;
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    if (r.ok()) {
      EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " read wrong data";
      right++;
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss) << "lbn " << lbn;
      lost++;
    }
  }
  // Half the chunks live on the two survivors; every other one is lost.
  EXPECT_EQ(right, 150);
  EXPECT_EQ(lost, 150);
}

TEST(BizaArray, RecoveryRebuildsMappingsFromOob) {
  Fixture f;
  Rng rng(14);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t lbn = rng.Uniform(10000);
    const uint64_t pattern = rng.Next();
    truth[lbn] = pattern;
    ASSERT_TRUE(f.WriteSync(lbn, {pattern}).ok());
  }
  // Host crash: attach a brand-new engine to the same devices and recover.
  std::vector<ZnsDevice*> ptrs;
  for (auto& dev : f.devs) {
    ptrs.push_back(dev.get());
  }
  BizaConfig rc;
  rc.recover_mode = true;
  BizaArray recovered(&f.sim, ptrs, rc);
  ASSERT_TRUE(recovered.Recover().ok());

  for (const auto& [lbn, expected] : truth) {
    Status status = InternalError("x");
    std::vector<uint64_t> out;
    recovered.SubmitRead(lbn, 1, [&](const Status& s, std::vector<uint64_t> p) {
      status = s;
      out = std::move(p);
    });
    f.sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], expected) << "lbn " << lbn;
  }
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(recovered.FreeZonesOf(d), EmptyZones(*f.devs[d])) << "dev " << d;
  }
  // BMT agrees with the pre-crash engine.
  int checked = 0;
  for (const auto& [lbn, expected] : truth) {
    if (checked++ > 200) {
      break;
    }
    EXPECT_EQ(recovered.DebugBmtPa(lbn), f.array->DebugBmtPa(lbn));
  }
}

TEST(BizaArray, RecoveredArrayAcceptsNewWrites) {
  Fixture f;
  ASSERT_TRUE(f.WriteSync(1, {111}).ok());
  std::vector<ZnsDevice*> ptrs;
  for (auto& dev : f.devs) {
    ptrs.push_back(dev.get());
  }
  BizaConfig rc;
  rc.recover_mode = true;
  BizaArray recovered(&f.sim, ptrs, rc);
  ASSERT_TRUE(recovered.Recover().ok());

  Status status = InternalError("x");
  recovered.SubmitWrite(2, {222}, [&](const Status& s) { status = s; },
                        WriteTag::kData);
  f.sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  std::vector<uint64_t> out;
  recovered.SubmitRead(1, 2, [&](const Status& s, std::vector<uint64_t> p) {
    status = s;
    out = std::move(p);
  });
  f.sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out, (std::vector<uint64_t>{111, 222}));
}

TEST(BizaArray, DetectorGuessesMatchDeviceWithoutDeviation) {
  Fixture f;
  ASSERT_TRUE(f.WriteSync(0, std::vector<uint64_t>(64, 1)).ok());
  // Every opened zone's guess must equal the device's actual channel when
  // the device maps strictly round-robin.
  for (int d = 0; d < 4; ++d) {
    const auto& det = f.array->detector(d);
    for (uint32_t zone = 0; zone < 48; ++zone) {
      const int guess = det.ChannelOf(zone);
      if (guess >= 0) {
        EXPECT_EQ(guess, f.devs[static_cast<size_t>(d)]->DebugChannelOf(zone))
            << "dev " << d << " zone " << zone;
      }
    }
  }
}

TEST(BizaArray, AblationFlagsDisableMechanisms) {
  BizaConfig no_selector;
  no_selector.enable_selector = false;
  Fixture f(no_selector);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(f.WriteSync(static_cast<uint64_t>(i), {1}).ok());
  }
  // Without the selector the ghost cache is never consulted.
  EXPECT_EQ(f.array->config().enable_selector, false);
  auto r = f.ReadSync(10, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 1u);
}

TEST(BizaArray, DegradedWritesSurviveDeviceFailure) {
  Fixture f;
  for (uint64_t lbn = 0; lbn < 120; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn + 1}).ok());
  }
  f.array->SetDeviceFailed(1, true);
  // New writes land degraded: chunks destined for the dead device become
  // phantoms whose content exists only XOR-ed into the stripe parity.
  for (uint64_t lbn = 200; lbn < 320; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn * 7}).ok());
  }
  EXPECT_GT(f.array->stats().degraded_writes, 0u);
  for (uint64_t lbn = 0; lbn < 120; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn + 1) << "lbn " << lbn;
  }
  for (uint64_t lbn = 200; lbn < 320; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn * 7) << "lbn " << lbn;
  }
  EXPECT_GT(f.array->stats().degraded_reads, 0u);
}

TEST(BizaArray, InjectorDeviceDeathAutoDetected) {
  Fixture f;
  f.fault.KillDeviceAt(2, 1);  // dead from t = 1 ns: every command bounces
  std::unordered_map<uint64_t, uint64_t> acked;
  for (uint64_t lbn = 0; lbn < 200; ++lbn) {
    const uint64_t pattern = lbn + 5;
    const Status s = f.WriteSync(lbn, {pattern});
    if (s.ok()) {
      acked[lbn] = pattern;
    } else {
      // Only writes in flight at the moment of detection may fail, and only
      // with the permanent-unavailability code.
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
    }
  }
  // The array noticed the death on its own and switched to degraded writes.
  EXPECT_GT(f.fault.stats().unavailable_rejections, 0u);
  EXPECT_GT(f.array->stats().degraded_writes, 0u);
  // Post-detection writes all succeed.
  for (uint64_t lbn = 300; lbn < 340; ++lbn) {
    const Status s = f.WriteSync(lbn, {lbn});
    ASSERT_TRUE(s.ok()) << s.ToString();
    acked[lbn] = lbn;
  }
  for (const auto& [lbn, expected] : acked) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], expected) << "lbn " << lbn;
  }
}

TEST(BizaArray, TransientErrorsRetriedTransparently) {
  Fixture f;
  // Two scripted one-shot errors per direction: well inside the retry
  // budget (kMaxIoRetries = 3), so no user-visible failure.
  f.fault.AddWriteErrors(0, 2);
  for (uint64_t lbn = 0; lbn < 40; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn + 9}).ok());
  }
  EXPECT_GT(f.fault.stats().injected_write_errors, 0u);
  EXPECT_GT(f.array->stats().write_retries, 0u);
  f.fault.AddReadErrors(0, 2);
  for (uint64_t lbn = 0; lbn < 40; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn + 9) << "lbn " << lbn;
  }
  EXPECT_GT(f.fault.stats().injected_read_errors, 0u);
  EXPECT_GT(f.array->stats().read_retries, 0u);
}

TEST(BizaArray, FailSlowStretchesCompletionTimes) {
  auto run = [](double mult) {
    Fixture f;
    if (mult > 1.0) {
      f.fault.SetFailSlow(0, mult);
    }
    for (uint64_t lbn = 0; lbn < 60; ++lbn) {
      EXPECT_TRUE(f.WriteSync(lbn, {lbn}).ok());
    }
    return f.sim.Now();
  };
  const SimTime healthy = run(1.0);
  const SimTime slow = run(8.0);
  EXPECT_GT(slow, healthy);
}

TEST(BizaArray, OnlineRebuildRestoresRedundancy) {
  Fixture f;
  Rng rng(33);
  std::vector<uint64_t> truth(900);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next() | 1;  // never zero
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  f.array->SetDeviceFailed(1, true);
  // Degraded overwrites while the member is down.
  for (uint64_t lbn = 0; lbn < 100; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  ASSERT_GT(f.array->stats().degraded_writes, 0u);

  // Hot-swap a fresh spare and rebuild online.
  f.devs.push_back(std::make_unique<ZnsDevice>(&f.sim, DevConfig(99)));
  ASSERT_TRUE(f.array->ReplaceDevice(1, f.devs.back().get()).ok());
  EXPECT_TRUE(f.array->rebuild().active);
  EXPECT_EQ(f.array->rebuild().device, 1);

  // Foreground I/O must be served while the sweep runs. Pump the simulator
  // in small slices (RunUntilIdle would complete the rebuild instantly).
  uint64_t foreground_reads = 0;
  while (f.array->rebuild().active && f.sim.pending_events() > 0) {
    const uint64_t lbn = rng.Uniform(truth.size());
    bool done = false;
    Status status = InternalError("pending");
    std::vector<uint64_t> out;
    f.array->SubmitRead(lbn, 1,
                        [&](const Status& s, std::vector<uint64_t> p) {
                          done = true;
                          status = s;
                          out = std::move(p);
                        });
    while (!done && f.sim.pending_events() > 0) {
      f.sim.RunFor(20 * kMicrosecond);
    }
    ASSERT_TRUE(done);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], truth[lbn]) << "lbn " << lbn << " during rebuild";
    foreground_reads++;
  }
  EXPECT_GT(foreground_reads, 0u);
  f.sim.RunUntilIdle();

  EXPECT_FALSE(f.array->rebuild().active);
  EXPECT_GT(f.array->rebuild().chunks_migrated, 0u);
  EXPECT_GT(f.array->rebuild().passes, 0u);
  EXPECT_GT(f.array->rebuild().finished_ns, f.array->rebuild().started_ns);
  EXPECT_GT(f.array->stats().degraded_reads, 0u);
  // Device 1 is now the spare at the back of devs.
  for (int d = 0; d < 4; ++d) {
    const ZnsDevice& dev = d == 1 ? *f.devs.back() : *f.devs[d];
    EXPECT_EQ(f.array->FreeZonesOf(d), EmptyZones(dev)) << "dev " << d;
  }

  // Everything readable on the healthy array.
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 13) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " after rebuild";
  }
  // Redundancy fully restored: losing a *different* member afterwards must
  // still reconstruct everything — proves parity was rebuilt, not just data.
  f.array->SetDeviceFailed(3, true);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 17) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " degraded post-rebuild";
  }
  f.array->SetDeviceFailed(3, false);
}

// The replacement dies 300 us into the sweep. The sweep must end with the
// member still failed, not report the rebuild finished, and every block must
// still read back (degraded) right. The member can then be replaced again.
TEST(BizaArray, RebuildEndsWhenReplacementDies) {
  Fixture f;
  Rng rng(51);
  std::vector<uint64_t> truth(3000);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 50) {
    std::vector<uint64_t> chunk(50);
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      truth[lbn + i] = chunk[i] = rng.Next() | 1;
    }
    ASSERT_TRUE(f.WriteSync(lbn, std::move(chunk)).ok());
  }
  f.array->SetDeviceFailed(1, true);
  f.devs.push_back(std::make_unique<ZnsDevice>(&f.sim, DevConfig(98)));
  f.devs.back()->AttachFaultInjector(&f.fault, 4);
  ASSERT_TRUE(f.array->ReplaceDevice(1, f.devs.back().get()).ok());
  f.fault.KillDeviceAt(4, f.sim.Now() + 300 * kMicrosecond);
  f.sim.RunUntilIdle();

  EXPECT_GT(f.fault.stats().unavailable_rejections, 0u);
  EXPECT_FALSE(f.array->rebuild().active);
  EXPECT_EQ(f.array->rebuild().finished_ns, 0u);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok()) << "lbn " << lbn << ": " << r.status().ToString();
    ASSERT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
  }

  // Still failed, so a second spare may take the slot.
  f.devs.push_back(std::make_unique<ZnsDevice>(&f.sim, DevConfig(99)));
  f.devs.back()->AttachFaultInjector(&f.fault, 5);
  ASSERT_TRUE(f.array->ReplaceDevice(1, f.devs.back().get()).ok());
  f.sim.RunUntilIdle();
  EXPECT_GT(f.array->rebuild().finished_ns, f.array->rebuild().started_ns);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 7) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok()) << "lbn " << lbn << ": " << r.status().ToString();
    EXPECT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn << " after rebuild";
  }
}

TEST(BizaArray, FaultInjectionIsDeterministic) {
  auto run = []() {
    Fixture f;
    f.fault.SetErrorRates(0, 0.03, 0.03);
    f.fault.SetFailSlow(2, 1.5);
    Rng rng(77);
    uint64_t failures = 0;
    for (int i = 0; i < 400; ++i) {
      if (!f.WriteSync(rng.Uniform(3000), {rng.Next()}).ok()) {
        failures++;
      }
    }
    return std::make_tuple(f.sim.Now(), failures,
                           f.array->stats().write_retries,
                           f.fault.stats().injected_write_errors);
  };
  EXPECT_EQ(run(), run());
}

TEST(BizaArray, GcPreservesDataUnderChurnWithDeviation) {
  // Wear-leveling deviations make some guesses wrong; correctness must not
  // depend on detection accuracy.
  BizaConfig config;
  config.exposed_capacity_ratio = 0.60;
  Fixture f(config, /*num_zones=*/32, /*zone_cap=*/512, /*deviation=*/0.2);
  const uint64_t cap = f.array->capacity_blocks();
  MicroWorkload wl(false, true, 4, cap, 21);
  Driver driver(&f.sim, f.array.get(), &wl, 16, /*verify_reads=*/true);
  auto report = driver.Run(2 * cap / 4, 120 * kSecond);
  EXPECT_EQ(report.requests_completed, 2 * cap / 4);
  MicroWorkload rl(false, false, 4, cap, 21);
  Driver reader(&f.sim, f.array.get(), &rl, 8, true);
  auto rreport = reader.Run(300, 30 * kSecond);
  EXPECT_EQ(rreport.verify_failures, 0u);
}

}  // namespace
}  // namespace biza
