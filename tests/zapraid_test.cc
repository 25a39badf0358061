// Tests of the ZapRAID engine: group/stripe mapping integrity, pad-on-seal
// alignment, log-structured parity overhead, group-granular GC, fault
// handling (degraded reads, auto-detected device death, transient retries),
// online rebuild, gray-member mitigations, and stripe-header recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fault/fault_injector.h"
#include "src/health/device_health.h"
#include "src/metrics/observability.h"
#include "src/sim/simulator.h"
#include "src/zapraid/zapraid.h"

namespace biza {
namespace {

ZnsConfig DevConfig(uint64_t seed, uint32_t num_zones = 48,
                    uint64_t zone_cap = 1024) {
  ZnsConfig config = ZnsConfig::Zn540(num_zones, zone_cap);
  config.seed = seed;
  return config;
}

// Groups whose zone is EMPTY on every member: the recount FreeGroups()'s
// counter must match at every quiesce point (group g is zone g on each
// member).
uint64_t EmptyGroups(const std::vector<ZnsDevice*>& members) {
  uint64_t empty = 0;
  for (uint32_t g = 0; g < members[0]->config().num_zones; ++g) {
    bool all_empty = true;
    for (const ZnsDevice* dev : members) {
      all_empty = all_empty && dev->Report(g).state == ZoneState::kEmpty;
    }
    if (all_empty) {
      empty++;
    }
  }
  return empty;
}

// The engine's redundant bookkeeping agrees: live masks vs. the L2P, valid
// counts, the free-group counter.
void ExpectInvariants(const ZapRaid& array) {
  const Status status = array.CheckInvariants();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

struct Fixture {
  Simulator sim;
  FaultInjector fault;
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::unique_ptr<ZapRaid> array;

  explicit Fixture(ZapRaidConfig config = {}, uint32_t num_zones = 48,
                   uint64_t zone_cap = 1024, int num_devices = 4) {
    std::vector<ZnsDevice*> ptrs;
    for (int d = 0; d < num_devices; ++d) {
      ZnsConfig dc =
          DevConfig(static_cast<uint64_t>(d) + 1, num_zones, zone_cap);
      devs.push_back(std::make_unique<ZnsDevice>(&sim, dc));
      devs.back()->AttachFaultInjector(&fault, d);
      ptrs.push_back(devs.back().get());
    }
    array = std::make_unique<ZapRaid>(&sim, ptrs, config);
  }

  Status WriteSync(uint64_t lbn, std::vector<uint64_t> patterns) {
    Status out = InternalError("never completed");
    array->SubmitWrite(lbn, std::move(patterns),
                       [&](const Status& s) { out = s; }, WriteTag::kData);
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

  void FlushSync() {
    bool done = false;
    array->FlushBuffers([&] { done = true; });
    sim.RunUntilIdle();
    ASSERT_TRUE(done);
  }

  uint64_t TotalFlashWrites() const {
    uint64_t total = 0;
    for (const auto& dev : devs) {
      total += dev->stats().flash_programmed_blocks;
    }
    return total;
  }
};

TEST(ZapRaid, ExposesConfiguredCapacity) {
  Fixture f;
  // ratio * zones * zone_cap * (n-1): one chunk per row is parity.
  const uint64_t expect = static_cast<uint64_t>(0.70 * 48 * 1024 * 3);
  EXPECT_EQ(f.array->capacity_blocks(), expect);
}

TEST(ZapRaid, WriteReadRoundTrip) {
  Fixture f;
  ASSERT_TRUE(f.WriteSync(7, {0xAB}).ok());
  ASSERT_TRUE(f.WriteSync(100, {1, 2, 3, 4, 5, 6, 7, 8}).ok());
  auto r = f.ReadSync(7, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0xABu);
  r = f.ReadSync(100, 8);
  ASSERT_TRUE(r.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*r)[i], i + 1);
  }
}

TEST(ZapRaid, UnwrittenReadsZero) {
  Fixture f;
  auto r = f.ReadSync(5000, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0u);
  EXPECT_EQ((*r)[1], 0u);
  EXPECT_EQ((*r)[2], 0u);
}

TEST(ZapRaid, RandomWorkloadIntegrity) {
  Fixture f;
  Rng rng(11);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t lbn = rng.Uniform(2000);
    const uint64_t pattern = rng.Next() | 1;
    truth[lbn] = pattern;
    ASSERT_TRUE(f.WriteSync(lbn, {pattern}).ok());
  }
  for (const auto& [lbn, pattern] : truth) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], pattern) << "lbn " << lbn;
  }
}

// Mapping state scales with written data, not with the ~2 TiB exposed
// span: a full-geometry ZN540 array (904 zones x 1077 MiB x 4) constructs,
// serves a few thousand scattered writes and keeps its tables small.
TEST(ZapRaid, FullGeometryStateScalesWithWrittenData) {
  Fixture f({}, ZnsConfig::kFullZn540Zones, ZnsConfig::kFullZn540ZoneBlocks);
  Rng rng(29);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t lbn = rng.Uniform(f.array->capacity_blocks());
    const uint64_t pattern = rng.Next() | 1;
    truth[lbn] = pattern;
    ASSERT_TRUE(f.WriteSync(lbn, {pattern}).ok());
  }
  for (const auto& [lbn, pattern] : truth) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*r)[0], pattern) << "lbn " << lbn;
  }
  // One open group's row metadata (~2.1 MiB) plus a 3000-entry L2P.
  EXPECT_LT(f.array->ResidentStateBytes(), 8 * kMiB);
}

TEST(ZapRaid, ParityOverheadIsOneOverK) {
  Fixture f;
  // Fill whole rows only: 3 data + 1 parity per row, no pads, no GC.
  const uint64_t blocks = 3 * 1024;  // exactly one full group
  for (uint64_t lbn = 0; lbn < blocks; lbn += 8) {
    ASSERT_TRUE(f.WriteSync(lbn, {1, 2, 3, 4, 5, 6, 7, 8}).ok());
  }
  f.FlushSync();
  const double wa = static_cast<double>(f.TotalFlashWrites()) /
                    static_cast<double>(blocks);
  EXPECT_NEAR(wa, 4.0 / 3.0, 0.01);
  EXPECT_GT(f.array->stats().parity_writes, 0u);
}

TEST(ZapRaid, FlushPadsPartialRowsForAlignment) {
  Fixture f;
  // A single chunk leaves the row 1/3 filled: the flush must pad the other
  // data slots so every member zone's write pointer stays in lockstep.
  ASSERT_TRUE(f.WriteSync(42, {0xF00D}).ok());
  f.FlushSync();
  EXPECT_GT(f.array->stats().pad_writes, 0u);
  EXPECT_GT(f.array->stats().rows_closed_early, 0u);
  auto r = f.ReadSync(42, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0xF00Du);
}

TEST(ZapRaid, OverwriteTriggersGcAndReclaims) {
  ZapRaidConfig config;
  config.exposed_capacity_ratio = 0.60;
  Fixture f(config, /*num_zones=*/12, /*zone_cap=*/256);
  const uint64_t span = 3000;  // ~68% of the 4423-block exposed span
  Rng rng(23);
  std::vector<uint64_t> truth(span, 0);
  for (uint64_t lbn = 0; lbn < span; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  // Random overwrites push the log frontier past the free-group floor.
  for (int i = 0; i < 9000; ++i) {
    const uint64_t lbn = rng.Uniform(span);
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  EXPECT_GT(f.array->stats().gc_runs, 0u);
  EXPECT_GT(f.array->stats().gc_migrated_data, 0u);
  EXPECT_GT(f.array->stats().gc_zone_resets, 0u);
  EXPECT_GT(f.array->FreeGroups(), 0u);
  EXPECT_EQ(f.array->FreeGroups(),
            EmptyGroups({f.devs[0].get(), f.devs[1].get(), f.devs[2].get(),
                         f.devs[3].get()}));
  for (uint64_t lbn = 0; lbn < span; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
  }
  EXPECT_EQ(f.array->stats().gc_abandoned, 0u);
  ExpectInvariants(*f.array);
}

TEST(ZapRaid, AckWaitsForStalledTail) {
  // When AppendChunk finds no free group partway through a request, the
  // rest is parked until GC frees one. The ack must wait for the parked
  // tail: each writer reads its range back on every ack and must find what
  // it wrote. 13-block writes do not tile the 768-block group, so requests
  // straddle group boundaries and some park partway.
  Fixture f(ZapRaidConfig{}, /*num_zones=*/24, /*zone_cap=*/256);
  constexpr int kWriters = 8;
  constexpr uint64_t kBlocks = 13;
  constexpr uint64_t kAcks = 6000;
  const uint64_t region = f.array->capacity_blocks() / kWriters;
  struct Writer {
    uint64_t lbn = 0;
    std::vector<uint64_t> wrote;
  };
  std::vector<Writer> writers(kWriters);
  Rng rng(5);
  uint64_t next_pattern = 1;
  uint64_t acks = 0;
  uint64_t failures = 0;
  uint64_t stale_blocks = 0;
  std::function<void(int)> issue = [&](int w) {
    if (acks >= kAcks) {
      return;
    }
    Writer& writer = writers[static_cast<size_t>(w)];
    writer.lbn = static_cast<uint64_t>(w) * region +
                 rng.Uniform(region - kBlocks + 1);
    writer.wrote.resize(kBlocks);
    for (uint64_t& p : writer.wrote) {
      p = next_pattern++;
    }
    f.array->SubmitWrite(
        writer.lbn, writer.wrote,
        [&, w](const Status& s) {
          acks++;
          failures += s.ok() ? 0 : 1;
          const Writer& acked = writers[static_cast<size_t>(w)];
          f.array->SubmitRead(
              acked.lbn, kBlocks,
              [&, w](const Status& rs, std::vector<uint64_t> got) {
                failures += rs.ok() ? 0 : 1;
                const Writer& read = writers[static_cast<size_t>(w)];
                for (uint64_t j = 0; j < kBlocks && j < got.size(); ++j) {
                  stale_blocks += got[j] != read.wrote[j] ? 1 : 0;
                }
                issue(w);
              });
        },
        WriteTag::kData);
  };
  for (int w = 0; w < kWriters; ++w) {
    issue(w);
  }
  f.sim.RunUntilIdle();
  EXPECT_GE(acks, kAcks);
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(f.array->stats().write_stalls, 0u);
  EXPECT_EQ(stale_blocks, 0u);
  ExpectInvariants(*f.array);
}

TEST(ZapRaid, DegradedReadReconstructsFromParity) {
  Fixture f;
  for (uint64_t lbn = 0; lbn < 300; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn + 1}).ok());
  }
  f.FlushSync();
  f.array->SetDeviceFailed(2, true);
  for (uint64_t lbn = 0; lbn < 300; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn + 1) << "lbn " << lbn;
  }
  EXPECT_GT(f.array->stats().degraded_reads, 0u);
  ExpectInvariants(*f.array);
}

TEST(ZapRaid, WritesContinueAfterMemberDeath) {
  Fixture f;
  std::unordered_map<uint64_t, uint64_t> acked;
  for (uint64_t lbn = 0; lbn < 120; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn + 5}).ok());
    acked[lbn] = lbn + 5;
  }
  f.fault.KillDeviceAt(2, f.sim.Now() + 1);
  // Post-death writes re-form rows over the surviving members; in-flight
  // chunks destined for the dead member are requeued, so every write still
  // acks successfully.
  for (uint64_t lbn = 200; lbn < 360; ++lbn) {
    const Status s = f.WriteSync(lbn, {lbn * 3});
    ASSERT_TRUE(s.ok()) << s.ToString();
    acked[lbn] = lbn * 3;
  }
  EXPECT_GT(f.fault.stats().unavailable_rejections, 0u);
  for (const auto& [lbn, expected] : acked) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], expected) << "lbn " << lbn;
  }
  EXPECT_GT(f.array->stats().degraded_reads, 0u);
  ExpectInvariants(*f.array);
}

// A member dies while the user frontier's group is open and GC is cycling.
// That group still holds the dead member's rows, whose live chunks GC cannot
// read, so it must never become a victim: GC would make no progress, give
// up after three passes and pick it again, over and over. At most the victim
// in flight at the death is abandoned. (Writes may still park for good once
// no collectable victim is left; that degraded-mode wedge is out of scope.)
TEST(ZapRaid, MemberDeathUnderGcAbandonsAtMostOnce) {
  Fixture f(ZapRaidConfig{}, /*num_zones=*/24, /*zone_cap=*/256);
  const uint64_t span = f.array->capacity_blocks() / 2;
  Rng rng(13);
  uint64_t issued = 0;
  std::function<void()> issue = [&] {
    if (issued >= 40000) {
      return;
    }
    ++issued;
    const uint64_t n = 1 + rng.Uniform(8);
    f.array->SubmitWrite(rng.Uniform(span - n), std::vector<uint64_t>(n, issued),
                         [&](const Status&) { issue(); }, WriteTag::kData);
  };
  for (int w = 0; w < 16; ++w) {
    issue();
  }
  while (f.array->stats().gc_runs < 20 && f.sim.pending_events() > 0) {
    f.sim.RunFor(100 * kMicrosecond);
  }
  ASSERT_GE(f.array->stats().gc_runs, 20u) << "GC never reached steady state";
  f.fault.KillDeviceAt(1, f.sim.Now() + 1);
  f.sim.RunUntilIdle();
  EXPECT_GT(f.fault.stats().unavailable_rejections, 0u);
  EXPECT_LE(f.array->stats().gc_abandoned, 1u);
  ExpectInvariants(*f.array);
}

TEST(ZapRaid, TransientErrorsRetriedTransparently) {
  Fixture f;
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

TEST(ZapRaid, OnlineRebuildRestoresRedundancy) {
  Fixture f;
  Rng rng(33);
  std::vector<uint64_t> truth(900);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  f.FlushSync();
  f.array->SetDeviceFailed(1, true);
  // Degraded overwrites while the member is down.
  for (uint64_t lbn = 0; lbn < 100; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }

  // Hot-swap a fresh spare and rebuild online.
  f.devs.push_back(std::make_unique<ZnsDevice>(&f.sim, DevConfig(99)));
  ASSERT_TRUE(f.array->ReplaceDevice(1, f.devs.back().get()).ok());
  f.sim.RunUntilIdle();
  ASSERT_FALSE(f.array->rebuild().active);
  EXPECT_GT(f.array->rebuild().chunks_migrated, 0u);
  // Member 1 is now the spare at the back of devs.
  EXPECT_EQ(f.array->FreeGroups(),
            EmptyGroups({f.devs[0].get(), f.devs.back().get(),
                         f.devs[2].get(), f.devs[3].get()}));
  ExpectInvariants(*f.array);

  // Prove the rebuilt copies are real: fail a *different* member, forcing
  // every read through either direct chunks or single-failure parity paths.
  f.array->SetDeviceFailed(3, true);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
  }
}

// The replacement dies 300 us into the sweep. The sweep must end with the
// member still failed, not report the rebuild finished, and every block must
// still read back (degraded) right. The member can then be replaced again.
TEST(ZapRaid, RebuildEndsWhenReplacementDies) {
  Fixture f;
  Rng rng(53);
  std::vector<uint64_t> truth(3000);
  for (uint64_t lbn = 0; lbn < truth.size(); lbn += 50) {
    std::vector<uint64_t> chunk(50);
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      truth[lbn + i] = chunk[i] = rng.Next() | 1;
    }
    ASSERT_TRUE(f.WriteSync(lbn, std::move(chunk)).ok());
  }
  f.FlushSync();
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
  ExpectInvariants(*f.array);

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
  ExpectInvariants(*f.array);
}

// A sweep that gives up (MemberDeathUnderGcAbandonsAtMostOnce's run, whose
// dead member's chunks pin the groups GC could collect, so the sweep's
// migrations park for a free group) must leave the member failed: the L2P
// still points at chunks the sweep never re-homed, and only a degraded read
// can serve them. Reads may fail, but an acked block may never read back as
// zero or as another LBN's pattern with OK status.
TEST(ZapRaid, RebuildThatGivesUpKeepsMemberFailed) {
  Fixture f(ZapRaidConfig{}, /*num_zones=*/24, /*zone_cap=*/256);
  const uint64_t span = f.array->capacity_blocks() / 2;
  Rng rng(13);
  uint64_t issued = 0;
  std::unordered_map<uint64_t, uint64_t> acked;  // lbn -> acked version
  std::function<void()> issue = [&] {
    if (issued >= 40000) {
      return;
    }
    const uint64_t version = ++issued;
    const uint64_t n = 1 + rng.Uniform(8);
    const uint64_t lbn = rng.Uniform(span - n);
    std::vector<uint64_t> patterns(n);
    for (uint64_t i = 0; i < n; ++i) {
      patterns[i] = ((lbn + i) << 24) | version;
    }
    f.array->SubmitWrite(lbn, std::move(patterns),
                         [&, lbn, n, version](const Status& s) {
                           if (s.ok()) {
                             for (uint64_t i = 0; i < n; ++i) {
                               uint64_t& v = acked[lbn + i];
                               v = std::max(v, version);
                             }
                           }
                           issue();
                         },
                         WriteTag::kData);
  };
  for (int w = 0; w < 16; ++w) {
    issue();
  }
  while (f.array->stats().gc_runs < 20 && f.sim.pending_events() > 0) {
    f.sim.RunFor(100 * kMicrosecond);
  }
  ASSERT_GE(f.array->stats().gc_runs, 20u) << "GC never reached steady state";
  f.fault.KillDeviceAt(1, f.sim.Now() + 1);
  f.sim.RunUntilIdle();

  f.devs.push_back(
      std::make_unique<ZnsDevice>(&f.sim, DevConfig(99, 24, 256)));
  ASSERT_TRUE(f.array->ReplaceDevice(1, f.devs.back().get()).ok());
  f.sim.RunUntilIdle();
  EXPECT_FALSE(f.array->rebuild().active);
  EXPECT_EQ(f.array->rebuild().finished_ns, 0u) << "the sweep cannot finish";
  EXPECT_EQ(f.array->rebuild().passes, RebuildSweep::kMaxPasses);

  uint64_t wrong = 0;
  uint64_t ok_reads = 0;
  for (const auto& [lbn, version] : acked) {
    auto r = f.ReadSync(lbn, 1);
    if (!r.ok()) {
      continue;
    }
    ++ok_reads;
    const uint64_t got = (*r)[0];
    if (got == 0 || (got >> 24) != lbn) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u) << "of " << acked.size() << " acked blocks";
  EXPECT_GT(ok_reads, 0u);
  ExpectInvariants(*f.array);
}

// A member death with hundreds of chunks in flight re-homes those chunks
// onto live members. The rows they vacated keep their already-written
// parity, whose XOR still covers the phantom chunk — so it must be
// invalidated, or a later reconstruction fabricates data with OK status.
TEST(ZapRaid, MidFlightDeathNeverFabricatesReconstructedData) {
  Fixture f;
  Rng rng(41);
  constexpr uint64_t kSpan = 600;
  std::vector<uint64_t> truth(kSpan);
  uint64_t acked = 0;
  Status first_err = OkStatus();
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    f.array->SubmitWrite(lbn, {truth[lbn]},
                         [&](const Status& s) {
                           if (s.ok()) {
                             ++acked;
                           } else if (first_err.ok()) {
                             first_err = s;
                           }
                         },
                         WriteTag::kData);
  }
  f.fault.KillDeviceAt(2, f.sim.Now() + 300 * kMicrosecond);
  f.sim.RunUntilIdle();
  ASSERT_TRUE(first_err.ok()) << first_err.ToString();
  EXPECT_EQ(acked, kSpan);
  EXPECT_GT(f.array->stats().requeued_chunks, 0u);
  f.FlushSync();

  // With a second member flag-failed, every read must return the written
  // value or an error — OK-with-wrong-data means a reconstruction XORed
  // through parity that still covers a re-homed phantom chunk.
  f.array->SetDeviceFailed(0, true);
  uint64_t wrong = 0;
  uint64_t ok_reads = 0;
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    if (!r.ok()) {
      continue;
    }
    ++ok_reads;
    if ((*r)[0] != truth[lbn]) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(ok_reads, 0u);
  f.array->SetDeviceFailed(0, false);

  // Rebuild onto a spare: the sweep must also re-home the rows the
  // mid-flight requeue left unprotected, so a subsequent failure of a
  // *different* member degrades to ordinary single-parity reads.
  f.devs.push_back(std::make_unique<ZnsDevice>(&f.sim, DevConfig(99)));
  ASSERT_TRUE(f.array->ReplaceDevice(2, f.devs.back().get()).ok());
  f.sim.RunUntilIdle();
  ASSERT_FALSE(f.array->rebuild().active);
  f.array->SetDeviceFailed(0, true);
  wrong = 0;
  uint64_t errors = 0;
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    if (!r.ok()) {
      ++errors;
      continue;
    }
    if ((*r)[0] != truth[lbn]) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(errors, 0u);
  ExpectInvariants(*f.array);
}

// Reads that are in flight to a member when it dies get re-driven through a
// fresh L2P lookup. When the span is concurrently being overwritten, that
// fresh mapping can point at a not-yet-programmed home — the re-drive must
// serve the pending host copy, not the unwritten block (which reads zero).
TEST(ZapRaid, ReadsRedrivenPastDeathServePendingHostCopies) {
  Fixture f;
  constexpr uint64_t kSpan = 300;
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn + 1}).ok());
  }
  f.FlushSync();
  // Kill device 2 before the reads go out, with no intervening IO: the
  // engine has not yet observed the death, so reads homed on the dead
  // member reach the device and fail kUnavailable at submit.
  f.fault.KillDeviceAt(2, f.sim.Now() + 1);
  f.sim.RunUntil(f.sim.Now() + 2);
  std::vector<Status> rst(kSpan, InternalError("pending"));
  std::vector<uint64_t> rval(kSpan, ~0ULL);
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    f.array->SubmitRead(lbn, 1,
                        [&rst, &rval, lbn](const Status& s,
                                           std::vector<uint64_t> p) {
                          rst[lbn] = s;
                          if (s.ok()) {
                            rval[lbn] = p[0];
                          }
                        });
  }
  // Overwrites land at the same instant, before the failure callbacks run:
  // SubmitWrite synchronously re-points the L2P at new, not-yet-programmed
  // homes and stages host copies in pending_. The re-driven reads must
  // serve those host copies, not the unwritten destination blocks.
  uint64_t wacks = 0;
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    f.array->SubmitWrite(lbn, {lbn + 1000},
                         [&wacks](const Status& s) {
                           if (s.ok()) {
                             ++wacks;
                           }
                         },
                         WriteTag::kData);
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(wacks, kSpan);
  // Each read raced the overwrite of its block, so either version is
  // linearizable — but never zero or garbage from an unwritten home.
  uint64_t wrong = 0;
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    if (!rst[lbn].ok()) {
      continue;
    }
    if (rval[lbn] != lbn + 1 && rval[lbn] != lbn + 1000) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  // And once everything settles, the overwrites won.
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn + 1000) << "lbn " << lbn;
  }
  ExpectInvariants(*f.array);
}

// Exhausting the bounded retries on a write (scripted kDeviceError bursts)
// abandons that zone: the batch and everything queued behind it re-home
// onto fresh stripes, the ack still fires, and no L2P entry is left
// pointing at a never-programmed block.
TEST(ZapRaid, TerminalWriteFailuresRehomeWithoutLoss) {
  Fixture f;
  f.fault.AddWriteErrors(0, 60);  // > kMaxIoRetries per batch: terminal
  for (uint64_t lbn = 0; lbn < 120; ++lbn) {
    const Status s = f.WriteSync(lbn, {lbn + 21});
    ASSERT_TRUE(s.ok()) << lbn << ": " << s.ToString();
  }
  EXPECT_GT(f.fault.stats().injected_write_errors, 0u);
  EXPECT_GT(f.array->stats().write_retries, 0u);
  EXPECT_GT(f.array->stats().requeued_chunks, 0u);
  f.FlushSync();
  for (uint64_t lbn = 0; lbn < 120; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn + 21) << "lbn " << lbn;
  }
  // The array is healthy again once the scripted burst is consumed.
  for (uint64_t lbn = 200; lbn < 260; ++lbn) {
    ASSERT_TRUE(f.WriteSync(lbn, {lbn * 7}).ok());
  }
  for (uint64_t lbn = 200; lbn < 260; ++lbn) {
    auto r = f.ReadSync(lbn, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], lbn * 7) << "lbn " << lbn;
  }
  ExpectInvariants(*f.array);
}

TEST(ZapRaid, GrayMemberMitigationsEngage) {
  Fixture f;
  HealthConfig hc;
  hc.enabled = true;
  hc.window_ios = 16;
  hc.min_window_ns = 100 * kMicrosecond;
  DeviceHealthMonitor monitor(hc, f.devs[0]->config().timing.num_channels);
  f.array->SetHealthMonitor(&monitor);
  f.fault.SetFailSlow(2, 8.0);
  Rng rng(5);
  std::vector<uint64_t> truth(600);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
      auto r = f.ReadSync(lbn, 1);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ((*r)[0], truth[lbn]) << "lbn " << lbn;
    }
  }
  const ZapRaidStats& zs = f.array->stats();
  EXPECT_GT(monitor.stats().suspect_transitions + monitor.stats().gray_transitions,
            0u);
  EXPECT_GT(zs.mitigation.hedged_reads + zs.mitigation.recon_around_reads +
                zs.steered_parity_rows,
            0u);
}

TEST(ZapRaid, RecoveryRebuildsMappingsFromStripeHeaders) {
  Simulator sim;
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::vector<ZnsDevice*> ptrs;
  for (int d = 0; d < 4; ++d) {
    devs.push_back(
        std::make_unique<ZnsDevice>(&sim, DevConfig(static_cast<uint64_t>(d))));
    ptrs.push_back(devs.back().get());
  }
  Rng rng(77);
  std::vector<uint64_t> truth(1200);
  {
    ZapRaid array(&sim, ptrs, {});
    for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
      truth[lbn] = rng.Next() | 1;
      array.SubmitWrite(lbn, {truth[lbn]}, [](const Status&) {},
                        WriteTag::kData);
    }
    // Overwrite a slice so recovery must pick the highest-wsn copy.
    for (uint64_t lbn = 0; lbn < 200; ++lbn) {
      truth[lbn] = rng.Next() | 1;
      array.SubmitWrite(lbn, {truth[lbn]}, [](const Status&) {},
                        WriteTag::kData);
    }
    sim.RunUntilIdle();
    bool flushed = false;
    array.FlushBuffers([&] { flushed = true; });
    sim.RunUntilIdle();
    ASSERT_TRUE(flushed);
  }  // old engine instance discarded: only media state survives

  ZapRaidConfig rc;
  rc.recover_mode = true;
  ZapRaid recovered(&sim, ptrs, rc);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.FreeGroups(), EmptyGroups(ptrs));
  ExpectInvariants(recovered);
  for (uint64_t lbn = 0; lbn < truth.size(); ++lbn) {
    Status status = InternalError("pending");
    std::vector<uint64_t> out;
    recovered.SubmitRead(lbn, 1, [&](const Status& s, std::vector<uint64_t> p) {
      status = s;
      out = std::move(p);
    });
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0], truth[lbn]) << "lbn " << lbn;
  }

  // The recovered array keeps working: fresh writes and readback.
  for (uint64_t lbn = 2000; lbn < 2100; ++lbn) {
    Status status = InternalError("pending");
    recovered.SubmitWrite(lbn, {lbn * 13}, [&](const Status& s) { status = s; },
                          WriteTag::kData);
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
  }
  for (uint64_t lbn = 2000; lbn < 2100; ++lbn) {
    Status status = InternalError("pending");
    std::vector<uint64_t> out;
    recovered.SubmitRead(lbn, 1, [&](const Status& s, std::vector<uint64_t> p) {
      status = s;
      out = std::move(p);
    });
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(out[0], lbn * 13);
  }
  EXPECT_EQ(recovered.FreeGroups(), EmptyGroups(ptrs));
  ExpectInvariants(recovered);
}

// A hedged read's direct leg can complete kUnavailable when the suspect
// member dies mid-hedge. The leg must degrade like the normal read path
// (detect the death, re-drive through reconstruction) instead of failing
// the user read.
TEST(ZapRaid, HedgedReadsSurviveSuspectMemberDeath) {
  Fixture f;
  HealthConfig hc;
  hc.enabled = true;
  hc.window_ios = 16;
  hc.min_window_ns = 100 * kMicrosecond;
  DeviceHealthMonitor monitor(hc, f.devs[0]->config().timing.num_channels);
  f.array->SetHealthMonitor(&monitor);
  f.fault.SetFailSlow(2, 3.0);  // suspect-grade: hedging, not gray
  Rng rng(19);
  constexpr uint64_t kSpan = 400;
  std::vector<uint64_t> truth(kSpan);
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    truth[lbn] = rng.Next() | 1;
    ASSERT_TRUE(f.WriteSync(lbn, {truth[lbn]}).ok());
  }
  f.FlushSync();
  // Warm the detector until hedging engages.
  for (int pass = 0;
       pass < 4 && f.array->stats().mitigation.hedged_reads == 0; ++pass) {
    for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
      auto r = f.ReadSync(lbn, 1);
      ASSERT_TRUE(r.ok());
    }
  }
  ASSERT_GT(f.array->stats().mitigation.hedged_reads, 0u);
  // Kill the suspect before a full wave of reads goes out, with no
  // intervening IO: the engine still treats device 2 as a live suspect, so
  // every read homed there takes the hedged path and its direct leg fails
  // kUnavailable at submit. The leg must fall back to degraded reads, not
  // fail the user read.
  f.fault.KillDeviceAt(2, f.sim.Now() + 1);
  f.sim.RunUntil(f.sim.Now() + 2);
  std::vector<Status> rst(kSpan, InternalError("pending"));
  std::vector<uint64_t> rval(kSpan, ~0ULL);
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    f.array->SubmitRead(lbn, 1,
                        [&rst, &rval, lbn](const Status& s,
                                           std::vector<uint64_t> p) {
                          rst[lbn] = s;
                          if (s.ok()) {
                            rval[lbn] = p[0];
                          }
                        });
  }
  f.sim.RunUntilIdle();
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    ASSERT_TRUE(rst[lbn].ok()) << "lbn " << lbn << ": "
                               << rst[lbn].ToString();
    EXPECT_EQ(rval[lbn], truth[lbn]) << "lbn " << lbn;
  }
  ExpectInvariants(*f.array);
}

// A crash can persist a row's parity while one member's data program is
// lost (torn row). Recovery must not trust such parity: every degraded
// view of the recovered array has to agree with the healthy view, rather
// than fabricating sibling chunks through a XOR that covers the lost one.
TEST(ZapRaid, RecoveryRejectsTornRowParity) {
  Simulator sim;
  FaultInjector fault;
  fault.SetFailSlow(1, 25.0);  // device 1 lags: its programs tear at the cut
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::vector<ZnsDevice*> ptrs;
  for (int d = 0; d < 4; ++d) {
    devs.push_back(std::make_unique<ZnsDevice>(
        &sim, DevConfig(static_cast<uint64_t>(d) + 7)));
    devs.back()->AttachFaultInjector(&fault, d);
    ptrs.push_back(devs.back().get());
  }
  constexpr uint64_t kSpan = 600;
  {
    ZapRaid array(&sim, ptrs, {});
    for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
      array.SubmitWrite(lbn, {lbn + 11}, [](const Status&) {},
                        WriteTag::kData);
    }
    sim.RunUntil(sim.Now() + 400 * kMicrosecond);
    sim.DropPending();  // power cut mid-flight
  }
  ZapRaidConfig rc;
  rc.recover_mode = true;
  ZapRaid rec(&sim, ptrs, rc);
  ASSERT_TRUE(rec.Recover().ok());
  ExpectInvariants(rec);

  auto read1 = [&](uint64_t lbn, Status* status) {
    uint64_t value = 0;
    *status = InternalError("pending");
    rec.SubmitRead(lbn, 1, [&](const Status& s, std::vector<uint64_t> p) {
      *status = s;
      if (s.ok()) {
        value = p[0];
      }
    });
    sim.RunUntilIdle();
    return value;
  };

  // Healthy ground truth: what the recovered media actually holds.
  std::vector<uint64_t> healthy(kSpan);
  for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
    Status s = OkStatus();
    healthy[lbn] = read1(lbn, &s);
    ASSERT_TRUE(s.ok());
  }
  // Every single-member-failed view must agree with it or error out.
  uint64_t wrong = 0;
  for (int d = 0; d < 4; ++d) {
    rec.SetDeviceFailed(d, true);
    for (uint64_t lbn = 0; lbn < kSpan; ++lbn) {
      Status s = OkStatus();
      const uint64_t v = read1(lbn, &s);
      if (s.ok() && v != healthy[lbn]) {
        ++wrong;
      }
    }
    rec.SetDeviceFailed(d, false);
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(rec.stats().degraded_reads, 0u);
}

// The exported trace events named `name`, one JSON object each.
std::vector<std::string> TraceEvents(const std::string& json,
                                     const std::string& name) {
  std::vector<std::string> events;
  const std::string key = "{\"name\":\"" + name + "\"";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    events.push_back(json.substr(at, json.find("}}", at) + 2 - at));
  }
  return events;
}

TEST(ZapRaid, EngineSpansCarryTheRequest) {
  Fixture f;
  Observability obs;
  obs.tracer.Enable(/*capacity_per_lane=*/64);
  f.array->AttachObservability(&obs);
  ASSERT_TRUE(f.WriteSync(4321, {1, 2, 3}).ok());
  ASSERT_TRUE(f.ReadSync(4320, 5).ok());
  std::ostringstream trace;
  obs.tracer.ExportJson(trace, /*pid=*/0, /*leading_comma=*/false);
  const std::vector<std::string> writes =
      TraceEvents(trace.str(), "zapraid.write");
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_NE(writes[0].find("\"args\":{\"lbn\":4321,\"blocks\":3}"),
            std::string::npos)
      << writes[0];
  const std::vector<std::string> reads =
      TraceEvents(trace.str(), "zapraid.read");
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_NE(reads[0].find("\"args\":{\"lbn\":4320,\"blocks\":5}"),
            std::string::npos)
      << reads[0];
}

}  // namespace
}  // namespace biza
