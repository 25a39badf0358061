// Crash-consistency harness: drive a BizaArray with a continuous write
// stream, cut the power at an arbitrary instant (Simulator::RunUntil +
// DropPending destroys everything still in flight), attach a brand-new
// engine to the surviving devices, Recover(), and verify that every
// ACKNOWLEDGED write is readable.
//
// Verification protocol: each block's pattern encodes (lbn, version) as
// (lbn << 24) | version, and versions per lbn increase monotonically. After
// recovery a block must decode to its own lbn with a version at least the
// last acknowledged one (reading a NEWER submitted-but-unacked version is
// legal — the data simply reached media before the cut; reading an OLDER one
// is lost data). Unwritten blocks read zero.
//
// Covered crash points: random instants across the whole run (including
// torn stripes — data blocks durable, parity not, and vice versa),
// mid-ZRWA-window (a hot working set promoted to in-place updates),
// mid-GC (churn over a small over-provisioned array), and runs with
// scripted transient write errors keeping retries in flight at the cut.
//
// The harness is engine-generic: the same 105 crash points run against
// BizaArray (ZRWA-anchored stripes) and ZapRaid (raw-zone stripes with
// stripe-header journaling), whose recovery protocols are entirely
// different but honor the same zero-acked-write-loss contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/biza/biza_array.h"
#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/health/device_health.h"
#include "src/nvme/host_buffer.h"
#include "src/sim/simulator.h"
#include "src/zapraid/zapraid.h"

namespace biza {
namespace {

constexpr uint64_t kVersionBits = 24;
constexpr uint64_t kVersionMask = (1ULL << kVersionBits) - 1;

struct TrialOptions {
  uint64_t seed = 0;
  uint64_t span = 4000;               // lbn working-set size
  SimTime crash_window = 2 * kMillisecond;
  int iodepth = 8;
  bool prefill = false;               // fill the span first to provoke GC
  int scripted_write_errors = 0;      // one-shot kDeviceError injections
  uint32_t num_zones = 24;
  uint64_t zone_cap = 512;
  double capacity_ratio = 0.0;        // 0 = BizaConfig default
  double fail_slow_mult = 0.0;        // > 1: device 2 fail-slow all run
  bool mitigate = false;              // attach a fast-window health monitor
  // Host write-buffer tier above the engine: 0 = off, 1 = write-through,
  // 2 = write-back (NVRAM pool; its contents survive the cut and are
  // replayed into the recovered engine before verification).
  int hostbuf = 0;
};

struct Tracker {
  std::unordered_map<uint64_t, uint64_t> acked;      // lbn -> last acked ver
  std::unordered_map<uint64_t, uint64_t> submitted;  // lbn -> last submitted
  uint64_t acked_writes = 0;
};

// One complete crash trial. Adds the number of acknowledged writes to
// `*acked_out` (and pre-crash GC runs to `*gc_out`, pre-crash mitigation
// actions to `*mitig_out`, when given) so callers can assert the trials
// exercised real work.
// (void return: gtest ASSERT_* may only be used in void functions.)
template <typename Engine, typename Config>
void RunTrialT(const TrialOptions& opt, uint64_t* acked_out,
               uint64_t* gc_out = nullptr, uint64_t* mitig_out = nullptr,
               uint64_t* absorbed_out = nullptr) {
  Simulator sim;
  FaultInjector fault;
  if (opt.fail_slow_mult > 1.0) {
    fault.SetFailSlow(2, opt.fail_slow_mult);
  }
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::vector<ZnsDevice*> ptrs;
  int num_channels = 0;
  for (int d = 0; d < 4; ++d) {
    ZnsConfig dc = ZnsConfig::Zn540(opt.num_zones, opt.zone_cap);
    dc.seed = opt.seed * 101 + static_cast<uint64_t>(d) + 1;
    num_channels = dc.timing.num_channels;
    devs.push_back(std::make_unique<ZnsDevice>(&sim, dc));
    devs.back()->AttachFaultInjector(&fault, d);
    ptrs.push_back(devs.back().get());
  }
  Config config;
  if (opt.capacity_ratio > 0.0) {
    config.exposed_capacity_ratio = opt.capacity_ratio;
  }
  Engine array(&sim, ptrs, config);
  std::unique_ptr<DeviceHealthMonitor> monitor;
  if (opt.mitigate) {
    // Fast windows so the fail-slow member is detected inside the short
    // crash window and steering/capping is active when the power cuts.
    HealthConfig hc;
    hc.enabled = true;
    hc.window_ios = 16;
    hc.min_window_ns = 100 * kMicrosecond;
    monitor = std::make_unique<DeviceHealthMonitor>(hc, num_channels);
    array.SetHealthMonitor(monitor.get());
  }
  // Optional host write-buffer tier; all traffic goes through `front`.
  std::unique_ptr<HostWriteBuffer> hostbuf;
  BlockTarget* front = &array;
  if (opt.hostbuf != 0) {
    HostBufferConfig hc;
    hc.enabled = true;
    hc.mode = opt.hostbuf == 1 ? HostBufferMode::kWriteThrough
                               : HostBufferMode::kWriteBack;
    hc.capacity_blocks = 256;
    hostbuf = std::make_unique<HostWriteBuffer>(&sim, &array, hc);
    front = hostbuf.get();
  }
  const uint64_t span = std::min(opt.span, array.capacity_blocks());

  Tracker tracker;
  Rng rng(opt.seed * 31 + 7);

  if (opt.prefill) {
    // Fill the whole span once so the crash-window writes are overwrites
    // that invalidate stripes and pull GC into the crash path.
    uint64_t prefill_ok = 0;
    for (uint64_t lbn = 0; lbn < span; ++lbn) {
      tracker.submitted[lbn] = 1;
      front->SubmitWrite(lbn, {(lbn << kVersionBits) | 1},
                        [&tracker, &prefill_ok, lbn](const Status& s) {
                          if (s.ok()) {
                            tracker.acked[lbn] = 1;
                            tracker.acked_writes++;
                            prefill_ok++;
                          }
                        },
                        WriteTag::kData);
    }
    sim.RunUntilIdle();
    ASSERT_EQ(prefill_ok, span);
  }
  if (opt.scripted_write_errors > 0) {
    fault.AddWriteErrors(static_cast<int>(opt.seed % 4),
                         opt.scripted_write_errors);
  }

  // Self-sustaining submission chain: each completion records the ack and
  // submits the next write, keeping `iodepth` requests in flight until the
  // power cut destroys the chain.
  std::function<void()> submit;
  submit = [&]() {
    const uint64_t lbn = rng.Uniform(span);
    const uint64_t version = ++tracker.submitted[lbn];
    ASSERT_LE(version, kVersionMask);
    front->SubmitWrite(lbn, {(lbn << kVersionBits) | version},
                      [&tracker, &submit, lbn, version](const Status& s) {
                        if (s.ok()) {
                          uint64_t& acked = tracker.acked[lbn];
                          if (version > acked) {
                            acked = version;
                          }
                          tracker.acked_writes++;
                        }
                        submit();
                      },
                      WriteTag::kData);
  };
  for (int i = 0; i < opt.iodepth; ++i) {
    submit();
  }

  // The cut: run to a random instant, then drop everything still queued.
  const SimTime crash_at = sim.Now() + 1 + rng.Uniform(opt.crash_window);
  sim.RunUntil(crash_at);
  sim.DropPending();
  if (gc_out != nullptr) {
    *gc_out += array.stats().gc_runs;
  }
  if (mitig_out != nullptr) {
    const auto& bs = array.stats();
    if constexpr (std::is_same_v<Engine, BizaArray>) {
      *mitig_out += bs.steered_parity_stripes + bs.gray_channel_skips +
                    bs.mitigation.hedged_reads +
                    bs.mitigation.recon_around_reads;
    } else {
      *mitig_out += bs.steered_parity_rows + bs.mitigation.hedged_reads +
                    bs.mitigation.recon_around_reads;
    }
    if (monitor != nullptr) {
      *mitig_out += monitor->stats().suspect_transitions +
                    monitor->stats().gray_transitions;
    }
  }

  // Power-loss recovery: a brand-new engine over the same devices.
  Config rc = config;
  rc.recover_mode = true;
  Engine recovered(&sim, ptrs, rc);
  const Status rs = recovered.Recover();
  ASSERT_TRUE(rs.ok()) << rs.ToString();

  // NVRAM replay: the buffer pool's contents survive the cut (its pending
  // ack/flush *events* do not), so recovery rewrites every dirty block into
  // the recovered engine before serving reads. Write-through has nothing
  // dirty that was ever acknowledged, but replay is harmless either way.
  if (hostbuf != nullptr) {
    if (absorbed_out != nullptr) {
      *absorbed_out += hostbuf->stats().absorbed_blocks;
    }
    for (const auto& db : hostbuf->DirtyContents()) {
      Status replayed = InternalError("pending");
      recovered.SubmitWrite(db.lbn, {db.pattern},
                            [&replayed](const Status& s) { replayed = s; },
                            db.tag);
      sim.RunUntilIdle();
      ASSERT_TRUE(replayed.ok())
          << "NVRAM replay failed at lbn " << db.lbn << ": "
          << replayed.ToString();
    }
  }

  for (const auto& [lbn, acked_version] : tracker.acked) {
    Status status = InternalError("pending");
    std::vector<uint64_t> out;
    recovered.SubmitRead(lbn, 1,
                         [&](const Status& s, std::vector<uint64_t> p) {
                           status = s;
                           out = std::move(p);
                         });
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok()) << "lbn " << lbn << ": " << status.ToString();
    ASSERT_EQ(out.size(), 1u);
    const uint64_t got_lbn = out[0] >> kVersionBits;
    const uint64_t got_version = out[0] & kVersionMask;
    ASSERT_EQ(got_lbn, lbn) << "foreign pattern at lbn " << lbn << " (seed "
                            << opt.seed << ", crash at " << crash_at
                            << " ns, acked " << acked_version << ")";
    EXPECT_GE(got_version, acked_version)
        << "lbn " << lbn << ": acknowledged write lost (seed " << opt.seed
        << ", crash at " << crash_at << " ns)";
    EXPECT_LE(got_version, tracker.submitted[lbn])
        << "lbn " << lbn << ": version from the future";
  }
  *acked_out += tracker.acked_writes;
}

void RunTrial(const TrialOptions& opt, uint64_t* acked_out,
              uint64_t* gc_out = nullptr, uint64_t* mitig_out = nullptr) {
  RunTrialT<BizaArray, BizaConfig>(opt, acked_out, gc_out, mitig_out);
}

void RunZapTrial(const TrialOptions& opt, uint64_t* acked_out,
                 uint64_t* gc_out = nullptr, uint64_t* mitig_out = nullptr) {
  RunTrialT<ZapRaid, ZapRaidConfig>(opt, acked_out, gc_out, mitig_out);
}

// The full 105-point harness with the host write-buffer tier stacked above
// the engine. `mode` is TrialOptions::hostbuf (1 = write-through, 2 =
// write-back). Write-through must match the bare engine's zero-acked-write-
// loss contract exactly; write-back may only ack once the pool holds the
// block, and recovery replays the surviving pool into the rebuilt engine —
// so the identical acked <= recovered <= submitted check applies to both.
template <typename Engine, typename Config>
void RunHostBufHarness(int mode) {
  uint64_t total_acked = 0;
  uint64_t gc_runs = 0;
  uint64_t absorbed = 0;
  for (uint64_t trial = 0; trial < 60; ++trial) {  // randomized crash points
    TrialOptions opt;
    opt.seed = trial;
    opt.span = (trial % 3 == 0) ? 200 : 4000;
    opt.hostbuf = mode;
    RunTrialT<Engine, Config>(opt, &total_acked, nullptr, nullptr, &absorbed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 20; ++trial) {  // hot-span windows
    TrialOptions opt;
    opt.seed = 1000 + trial;
    opt.span = 16;
    opt.hostbuf = mode;
    RunTrialT<Engine, Config>(opt, &total_acked, nullptr, nullptr, &absorbed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 15; ++trial) {  // torn flush runs
    TrialOptions opt;
    opt.seed = 2000 + trial;
    opt.scripted_write_errors = 3;
    opt.hostbuf = mode;
    RunTrialT<Engine, Config>(opt, &total_acked, nullptr, nullptr, &absorbed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 10; ++trial) {  // mid-GC churn
    TrialOptions opt;
    opt.seed = 3000 + trial;
    opt.num_zones = 16;
    opt.zone_cap = 256;
    opt.capacity_ratio = 0.60;
    opt.span = 4500;
    opt.prefill = true;
    opt.iodepth = 16;
    opt.crash_window = 40 * kMillisecond;
    opt.hostbuf = mode;
    RunTrialT<Engine, Config>(opt, &total_acked, &gc_runs, nullptr,
                              &absorbed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(total_acked, 2000u);
  if (mode == 2) {
    // Write-back must actually have coalesced hot updates in the pool —
    // otherwise the harness never exercised the NVRAM-replay path.
    EXPECT_GT(absorbed, 0u);
  }
}

TEST(CrashRecovery, RandomizedCrashPointsPreserveAckedWrites) {
  uint64_t total_acked = 0;
  for (uint64_t trial = 0; trial < 60; ++trial) {
    TrialOptions opt;
    opt.seed = trial;
    // Mix working-set sizes so crashes land in varied allocator states.
    opt.span = (trial % 3 == 0) ? 200 : 4000;
    RunTrial(opt, &total_acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The harness must have exercised real work, not 60 empty runs.
  EXPECT_GT(total_acked, 2000u);
}

// Crash with the ZRWA window mid-flight: a tiny hot set promotes to
// in-place updates, so the cut lands inside partially-committed windows.
TEST(CrashRecovery, MidZrwaWindowCrash) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    TrialOptions opt;
    opt.seed = 1000 + trial;
    opt.span = 16;  // hot: ghost cache promotes, updates absorb in-place
    uint64_t acked = 0;
    RunTrial(opt, &acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Torn stripes under scripted transient write errors: retries are in flight
// when the power cuts, so stripes are interrupted between data and parity.
TEST(CrashRecovery, TornStripeWithScriptedWriteErrors) {
  for (uint64_t trial = 0; trial < 15; ++trial) {
    TrialOptions opt;
    opt.seed = 2000 + trial;
    opt.scripted_write_errors = 3;
    uint64_t acked = 0;
    RunTrial(opt, &acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Crash while GC migrates chunks: a small over-provisioned array prefilled
// once, then overwritten long enough that out-of-place updates exhaust the
// free zones and garbage collection runs under the crash window.
TEST(CrashRecovery, MidGcCrash) {
  uint64_t gc_runs = 0;
  for (uint64_t trial = 0; trial < 10; ++trial) {
    TrialOptions opt;
    opt.seed = 3000 + trial;
    opt.num_zones = 16;
    opt.zone_cap = 256;
    opt.capacity_ratio = 0.60;
    opt.span = 4500;  // ~60% of the exposed span: fills without stalling
    opt.prefill = true;
    opt.iodepth = 16;
    opt.crash_window = 40 * kMillisecond;  // long enough for GC to engage
    uint64_t acked = 0;
    RunTrial(opt, &acked, &gc_runs);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // At least some of the ten crash points must have landed after GC started.
  EXPECT_GT(gc_runs, 0u);
}

// The full 105-point harness again with device 2 fail-slow (6x, with its
// excess serialized into queue convoys) and the acting mitigation plane
// attached: detection mid-stream, parity steering, gray-channel skips, and
// in-flight caps must not weaken the zero-acked-write-loss contract.
// Recovery runs on a plain engine — durability may never depend on the
// monitor surviving the crash.
TEST(CrashRecovery, MitigatedGrayDevicePreservesAckedWrites) {
  uint64_t total_acked = 0;
  uint64_t gc_runs = 0;
  uint64_t mitigations = 0;
  auto mitigated = [](TrialOptions opt) {
    opt.fail_slow_mult = 6.0;
    opt.mitigate = true;
    return opt;
  };
  for (uint64_t trial = 0; trial < 60; ++trial) {  // randomized crash points
    TrialOptions opt;
    opt.seed = trial;
    opt.span = (trial % 3 == 0) ? 200 : 4000;
    RunTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 20; ++trial) {  // mid-ZRWA windows
    TrialOptions opt;
    opt.seed = 1000 + trial;
    opt.span = 16;
    RunTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 15; ++trial) {  // torn stripes + retries
    TrialOptions opt;
    opt.seed = 2000 + trial;
    opt.scripted_write_errors = 3;
    RunTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 10; ++trial) {  // mid-GC churn
    TrialOptions opt;
    opt.seed = 3000 + trial;
    opt.num_zones = 16;
    opt.zone_cap = 256;
    opt.capacity_ratio = 0.60;
    opt.span = 4500;
    opt.prefill = true;
    opt.iodepth = 16;
    opt.crash_window = 40 * kMillisecond;
    RunTrial(mitigated(opt), &total_acked, &gc_runs, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(total_acked, 2000u);
  // The plane must actually have acted before at least some of the cuts.
  EXPECT_GT(mitigations, 0u);
}

// --------------------------------------------------------------------------
// The same 105 crash points against the ZapRAID engine. Its recovery is a
// pure stripe-header (OOB) scan with highest-wsn-wins — no ZRWA anchoring,
// no zone-group journal — so every crash point re-validates a completely
// different protocol under the identical contract.
// --------------------------------------------------------------------------

TEST(CrashRecoveryZapRaid, RandomizedCrashPointsPreserveAckedWrites) {
  uint64_t total_acked = 0;
  for (uint64_t trial = 0; trial < 60; ++trial) {
    TrialOptions opt;
    opt.seed = trial;
    opt.span = (trial % 3 == 0) ? 200 : 4000;
    RunZapTrial(opt, &total_acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(total_acked, 2000u);
}

// ZapRAID has no ZRWA window; the analogous hazard is the open-stripe
// window — a hot 16-lbn set keeps rows forever part-filled, so the cut
// lands between a data chunk's program and its row's parity program.
TEST(CrashRecoveryZapRaid, HotSpanOpenStripeCrash) {
  for (uint64_t trial = 0; trial < 20; ++trial) {
    TrialOptions opt;
    opt.seed = 1000 + trial;
    opt.span = 16;
    uint64_t acked = 0;
    RunZapTrial(opt, &acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashRecoveryZapRaid, TornStripeWithScriptedWriteErrors) {
  for (uint64_t trial = 0; trial < 15; ++trial) {
    TrialOptions opt;
    opt.seed = 2000 + trial;
    opt.scripted_write_errors = 3;
    uint64_t acked = 0;
    RunZapTrial(opt, &acked);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Crash while group-granular GC migrates chunks: migrated copies preserve
// their original wsn, so after the cut both the victim's copy and the
// migrated copy may survive — recovery must treat them as the same version.
TEST(CrashRecoveryZapRaid, MidGcCrash) {
  uint64_t gc_runs = 0;
  for (uint64_t trial = 0; trial < 10; ++trial) {
    TrialOptions opt;
    opt.seed = 3000 + trial;
    opt.num_zones = 16;
    opt.zone_cap = 256;
    opt.capacity_ratio = 0.60;
    opt.span = 4500;
    opt.prefill = true;
    opt.iodepth = 16;
    opt.crash_window = 40 * kMillisecond;
    uint64_t acked = 0;
    RunZapTrial(opt, &acked, &gc_runs);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(gc_runs, 0u);
}

// The 105 points once more with device 2 fail-slow and the health plane
// armed: parity steering moves rows' parity onto the gray member and
// reads reconstruct around it, none of which may weaken durability.
TEST(CrashRecoveryZapRaid, MitigatedGrayDevicePreservesAckedWrites) {
  uint64_t total_acked = 0;
  uint64_t gc_runs = 0;
  uint64_t mitigations = 0;
  auto mitigated = [](TrialOptions opt) {
    opt.fail_slow_mult = 6.0;
    opt.mitigate = true;
    return opt;
  };
  for (uint64_t trial = 0; trial < 60; ++trial) {  // randomized crash points
    TrialOptions opt;
    opt.seed = trial;
    opt.span = (trial % 3 == 0) ? 200 : 4000;
    RunZapTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 20; ++trial) {  // open-stripe windows
    TrialOptions opt;
    opt.seed = 1000 + trial;
    opt.span = 16;
    RunZapTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 15; ++trial) {  // torn stripes + retries
    TrialOptions opt;
    opt.seed = 2000 + trial;
    opt.scripted_write_errors = 3;
    RunZapTrial(mitigated(opt), &total_acked, nullptr, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  for (uint64_t trial = 0; trial < 10; ++trial) {  // mid-GC churn
    TrialOptions opt;
    opt.seed = 3000 + trial;
    opt.num_zones = 16;
    opt.zone_cap = 256;
    opt.capacity_ratio = 0.60;
    opt.span = 4500;
    opt.prefill = true;
    opt.iodepth = 16;
    opt.crash_window = 40 * kMillisecond;
    RunZapTrial(mitigated(opt), &total_acked, &gc_runs, &mitigations);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(total_acked, 2000u);
  EXPECT_GT(mitigations, 0u);
}

// --------------------------------------------------------------------------
// The 105 crash points with the host write-buffer tier above each engine.
// Write-through adds latency but no new durability surface; write-back acks
// out of the NVRAM pool, so these trials prove the pool's survive-and-replay
// protocol upholds the same contract as the bare engines.
// --------------------------------------------------------------------------

TEST(CrashRecovery, WriteThroughHostBufferPreservesAckedWrites) {
  RunHostBufHarness<BizaArray, BizaConfig>(/*mode=*/1);
}

TEST(CrashRecovery, WriteBackHostBufferPreservesAckedWrites) {
  RunHostBufHarness<BizaArray, BizaConfig>(/*mode=*/2);
}

TEST(CrashRecoveryZapRaid, WriteThroughHostBufferPreservesAckedWrites) {
  RunHostBufHarness<ZapRaid, ZapRaidConfig>(/*mode=*/1);
}

TEST(CrashRecoveryZapRaid, WriteBackHostBufferPreservesAckedWrites) {
  RunHostBufHarness<ZapRaid, ZapRaidConfig>(/*mode=*/2);
}

}  // namespace
}  // namespace biza
