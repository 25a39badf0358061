// Golden fingerprints: each case runs one seeded driver workload on a scaled
// platform and compares a digest of every externally visible result with a
// literal string. The digest folds counts, verify failures, bytes, the
// virtual-time extent, both latency shapes, the final clock, the number of
// fired events and flash programs, so any change to event order, device
// timing or engine decisions along the path shows up as a mismatch.
//
// The cases cover every completion path a request can take: bare BIZA,
// BIZA under gray-failure mitigation, BIZA behind NVMe queue pairs and the
// write-back host buffer, mdraid over conventional SSDs (plain and
// mitigated, and behind NVMe queues), ZapRAID behind NVMe queues, mitigated
// ZapRAID, and mdraid over dm-zap. BIZA with wear-levelling deviation pins
// the device RNG that jitter and channel draws share. One more case runs
// ZapRAID on small zones long enough for its group GC to cycle, and folds
// the GC counters into the digest. Four more run the fault paths (BIZA
// RAID 5 and RAID 6, ZapRAID, mdraid over conventional SSDs): transient-error
// retries, a member death inside the run and the reads around a fail-slow
// member. Four more replace a dead member and rebuild it online under
// foreground I/O (same four engines). Re-pin a string only for an intended
// behaviour change, and say so in the commit.
//
// Verify failures are recorded, not required to be zero: the driver checks a
// read against the newest write issued to each block, which a read racing a
// later overwrite of the same block does not return.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/nvme/host_buffer.h"
#include "src/nvme/nvme_queue.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

struct RunOutcome {
  std::string fingerprint;
  uint64_t mitigated_reads = 0;  // hedged + reconstructed-around reads
};

// Digest of one finished driver run: the report, the final clock, the fired
// events and the flash programs.
std::string Digest(const DriverReport& report, const Simulator& sim,
                   const Platform& platform) {
  std::ostringstream fp;
  fp << report.requests_completed << '|' << report.verify_failures << '|'
     << report.bytes_written << '|' << report.bytes_read << '|'
     << report.elapsed_ns << '|' << report.write_latency.Summary() << '|'
     << report.read_latency.Summary() << '|' << sim.Now() << '|'
     << sim.fired_events() << '|' << platform.FlashProgrammedBlocks();
  return fp.str();
}

// One full driver run on a scaled platform of `kind`. CASA is 98.6% writes;
// with `mitigate` set the run uses the read-heavy web profile instead, makes
// device 1 8x fail-slow and attaches the health monitor with small windows,
// so detection, hedged reads, reconstruct-around reads and write steering
// all fire.
RunOutcome RunCasa(PlatformKind kind, uint64_t seed, bool mitigate = false,
                   const NvmeQueueConfig& nvme = {},
                   const HostBufferConfig& hostbuf = {},
                   double wear_level_deviation = 0.0) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.zns.nvme = nvme;
  config.zns.wear_level_deviation = wear_level_deviation;
  config.conv.nvme = nvme;
  config.hostbuf = hostbuf;
  config.MatchConvCapacity();
  config.seed = seed;
  if (mitigate) {
    config.faults.Device(1).latency_mult = 8.0;
    config.health.enabled = true;
    config.health.window_ios = 16;
    config.health.min_window_ns = 200 * kMicrosecond;
  }
  auto platform = Platform::Create(&sim, kind, config);

  TraceProfile profile =
      mitigate ? TraceProfile::Web() : TraceProfile::AllTable6()[0];
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/16,
                /*verify_reads=*/true);
  const DriverReport report = driver.Run(/*max_requests=*/3000, 60 * kSecond);
  platform->Quiesce(&sim);

  RunOutcome out;
  out.fingerprint = Digest(report, sim, *platform);
  const ReadMitigationStats* m = nullptr;
  if (platform->biza() != nullptr) {
    m = &platform->biza()->stats().mitigation;
  } else if (platform->mdraid() != nullptr) {
    m = &platform->mdraid()->stats().mitigation;
  } else if (platform->zapraid() != nullptr) {
    m = &platform->zapraid()->stats().mitigation;
  }
  if (m != nullptr) {
    out.mitigated_reads = m->hedged_reads + m->recon_around_reads;
  }
  return out;
}

NvmeQueueConfig FourQueuePairs() {
  NvmeQueueConfig nq;
  nq.enabled = true;
  nq.num_queues = 4;
  nq.queue_depth = 32;
  return nq;
}

HostBufferConfig WriteBack512() {
  HostBufferConfig hb;
  hb.enabled = true;
  hb.mode = HostBufferMode::kWriteBack;
  hb.capacity_blocks = 512;
  return hb;
}

TEST(FingerprintTest, BizaCasa) {
  EXPECT_EQ(RunCasa(PlatformKind::kBiza, /*seed=*/1).fingerprint,
            "3000|0|12099584|581632|21044829|n=2954 avg=112.1us p50=63.0us "
            "p99=647.2us p99.99=745.5us max=749.6us|n=46 avg=0.4us p50=0.0us "
            "p99=16.3us p99.99=16.3us max=16.4us|21044829|11818|41");
}

// Wear-levelling deviation on the legacy path: one RNG per device draws
// both the dispatch jitter and the channel of every opened zone, so this
// pins how the two draws interleave.
TEST(FingerprintTest, BizaCasaWearLevelDeviation) {
  EXPECT_EQ(RunCasa(PlatformKind::kBiza, /*seed=*/1, /*mitigate=*/false,
                    /*nvme=*/{}, /*hostbuf=*/{}, /*wear_level_deviation=*/0.3)
                .fingerprint,
            "3000|0|12099584|581632|20996985|n=2954 avg=111.9us p50=63.0us "
            "p99=630.8us p99.99=729.1us max=732.9us|n=46 avg=0.2us p50=0.0us "
            "p99=10.5us p99.99=10.5us max=10.5us|20996985|11818|41");
}

TEST(FingerprintTest, BizaWebMitigatedGrayDevice) {
  const RunOutcome out =
      RunCasa(PlatformKind::kBiza, /*seed=*/5, /*mitigate=*/true);
  EXPECT_GT(out.mitigated_reads, 0u) << "fail-slow device was never mitigated";
  EXPECT_EQ(out.fingerprint,
            "3000|0|11661312|78237696|353507284|n=1387 avg=4035.8us "
            "p50=5832.7us p99=9830.4us p99.99=21665.4us max=21665.4us|n=1613 "
            "avg=7.6us p50=0.0us p99=47.6us p99.99=8060.9us max=8102.2us|"
            "353507284|11410|1013");
}

TEST(FingerprintTest, BizaNvmeQueuesWithWriteBackBuffer) {
  EXPECT_EQ(RunCasa(PlatformKind::kBiza, /*seed=*/3, /*mitigate=*/false,
                    FourQueuePairs(), WriteBack512())
                .fingerprint,
            "3000|0|12099584|581632|1045018|n=2954 avg=5.6us p50=4.5us "
            "p99=28.9us p99.99=74.2us max=74.2us|n=46 avg=3.3us p50=0.0us "
            "p99=152.0us p99.99=152.0us max=152.0us|2256965|8017|117");
}

TEST(FingerprintTest, MdraidConvCasa) {
  EXPECT_EQ(RunCasa(PlatformKind::kMdraidConv, /*seed=*/1).fingerprint,
            "3000|0|12099584|581632|2990893|n=2954 avg=15.3us p50=10.6us "
            "p99=438.3us p99.99=478.8us max=478.8us|n=46 avg=46.7us p50=46.6us "
            "p99=62.7us p99.99=62.7us max=62.7us|13820059|8816|1830");
}

// ConvSSD's NVMe queue pairs: the only case that runs them.
TEST(FingerprintTest, MdraidConvNvmeQueues) {
  EXPECT_EQ(RunCasa(PlatformKind::kMdraidConv, /*seed=*/2, /*mitigate=*/false,
                    FourQueuePairs())
                .fingerprint,
            "3000|0|12099584|581632|3299093|n=2954 avg=16.8us p50=10.6us "
            "p99=565.2us p99.99=663.6us max=663.8us|n=46 avg=55.7us p50=56.8us "
            "p99=74.8us p99.99=74.8us max=75.7us|14167122|5351|1829");
}

TEST(FingerprintTest, MdraidConvWebMitigatedGrayDevice) {
  const RunOutcome out =
      RunCasa(PlatformKind::kMdraidConv, /*seed=*/5, /*mitigate=*/true);
  EXPECT_GT(out.mitigated_reads, 0u) << "fail-slow device was never mitigated";
  EXPECT_EQ(out.fingerprint,
            "3000|1|11661312|78237696|1151492198|n=1387 avg=12318.0us "
            "p50=2.8us p99=813695.0us p99.99=830472.2us max=835620.7us|n=1613 "
            "avg=817.6us p50=299.0us p99=1097.7us p99.99=97517.6us "
            "max=98197.0us|1521198432|74955|3337");
}

TEST(FingerprintTest, ZapRaidNvmeQueues) {
  EXPECT_EQ(RunCasa(PlatformKind::kZapRaid, /*seed=*/2, /*mitigate=*/false,
                    FourQueuePairs())
                .fingerprint,
            "3000|0|12099584|581632|20382033|n=2954 avg=110.0us p50=93.2us "
            "p99=157.7us p99.99=157.7us max=159.1us|n=46 avg=1.2us p50=0.0us "
            "p99=56.7us p99.99=56.7us max=56.7us|20447543|1986|3940");
}

TEST(FingerprintTest, ZapRaidWebMitigatedGrayDevice) {
  const RunOutcome out =
      RunCasa(PlatformKind::kZapRaid, /*seed=*/5, /*mitigate=*/true);
  EXPECT_GT(out.mitigated_reads, 0u) << "fail-slow device was never mitigated";
  EXPECT_EQ(out.fingerprint,
            "3000|0|11661312|78237696|42773264|n=1387 avg=481.0us "
            "p50=157.7us p99=2850.8us p99.99=3440.6us max=3458.6us|n=1613 "
            "avg=10.1us p50=0.0us p99=149.5us p99.99=1589.2us max=1599.3us|"
            "64789060|3112|3796");
}

// ZapRAID on 24 x 4 MiB zones under the Tencent profile (cold, widely spread
// working set over half the exposed capacity), QD 32: the log wraps within
// the run, so group GC picks victims, migrates their live chunks and resets
// zones tens of times. The digest adds the GC counters, which pin which
// chunks GC found live and how many groups it reclaimed.
TEST(FingerprintTest, ZapRaidTencentGcSteady) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/24, /*zone_capacity_blocks=*/1024);
  config.MatchConvCapacity();
  config.seed = 7;
  auto platform = Platform::Create(&sim, PlatformKind::kZapRaid, config);
  TraceProfile profile = TraceProfile::Tencent();
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 2);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/32,
                /*verify_reads=*/true);
  const DriverReport report = driver.Run(/*max_requests=*/20000, 60 * kSecond);
  platform->Quiesce(&sim);

  const ZapRaidStats& zs = platform->zapraid()->stats();
  EXPECT_GE(zs.gc_runs, 10u) << "GC did not reach steady state";
  std::ostringstream fp;
  fp << Digest(report, sim, *platform) << '|' << zs.gc_runs << '|'
     << zs.gc_migrated_data << '|' << zs.gc_zone_resets;
  EXPECT_EQ(fp.str(),
            "20000|220|436084736|310022144|328588265|n=10512 avg=686.4us "
            "p50=679.9us p99=1163.3us p99.99=4653.1us max=4691.1us|n=9488 "
            "avg=347.3us p50=170.0us p99=3244.0us p99.99=4096.0us "
            "max=4112.7us|330794610|143809|156024|22|10549|88");
}

TEST(FingerprintTest, MdraidDmzapCasa) {
  EXPECT_EQ(RunCasa(PlatformKind::kMdraidDmzap, /*seed=*/1).fingerprint,
            "3000|0|12099584|581632|2067800|n=2954 avg=11.2us p50=11.1us "
            "p99=11.1us p99.99=11.1us max=11.2us|n=46 avg=0.0us p50=0.0us "
            "p99=0.0us p99.99=0.0us max=0.0us|13919301|6824|1884");
}

// The fault paths. Every member fault the fault plane scripts hits one run:
// members 0 and 2 return transient read and write errors (retried with
// backoff), member 1 is 8x fail-slow under the health monitor (hedged and
// reconstruct-around reads), and member 3 dies at `death_ns`, inside the
// run, after which its chunks are read degraded. The digest adds the
// engine's retry, degraded-read and mitigated-read counts; each must be
// nonzero, or the case no longer pins the path it is named for.
std::string RunFaultPaths(PlatformKind kind, SimTime death_ns,
                          int num_parity = 1) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.MatchConvCapacity();
  config.seed = 1;
  config.biza.num_parity = num_parity;
  for (int device : {0, 2}) {
    config.faults.Device(device).read_error_prob = 0.02;
    config.faults.Device(device).write_error_prob = 0.02;
  }
  config.faults.Device(1).latency_mult = 8.0;
  config.faults.Device(3).die_at = death_ns;
  config.health.enabled = true;
  config.health.window_ios = 16;
  config.health.min_window_ns = 200 * kMicrosecond;
  auto platform = Platform::Create(&sim, kind, config);

  TraceProfile profile = TraceProfile::Web();
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/16,
                /*verify_reads=*/true);
  const DriverReport report = driver.Run(/*max_requests=*/3000, 60 * kSecond);
  platform->Quiesce(&sim);

  uint64_t retries = 0;
  uint64_t degraded_reads = 0;
  const ReadMitigationStats* m = nullptr;
  if (const BizaArray* biza = platform->biza(); biza != nullptr) {
    retries = biza->stats().read_retries + biza->stats().write_retries;
    degraded_reads = biza->stats().degraded_reads;
    m = &biza->stats().mitigation;
  } else if (const ZapRaid* zap = platform->zapraid(); zap != nullptr) {
    retries = zap->stats().read_retries + zap->stats().write_retries;
    degraded_reads = zap->stats().degraded_reads;
    m = &zap->stats().mitigation;
  } else {
    const Mdraid* md = platform->mdraid();
    retries = md->stats().read_retries + md->stats().write_retries;
    degraded_reads = md->stats().degraded_reads;
    m = &md->stats().mitigation;
  }
  const uint64_t mitigated_reads = m->hedged_reads + m->recon_around_reads;
  EXPECT_GT(platform->faults()->stats().unavailable_rejections, 0u)
      << "member 3 never died inside the run";
  EXPECT_GT(retries, 0u) << "no transient error was retried";
  EXPECT_GT(degraded_reads, 0u) << "no read went degraded";
  EXPECT_GT(mitigated_reads, 0u) << "fail-slow member never mitigated";
  std::ostringstream fp;
  fp << Digest(report, sim, *platform) << '|' << retries << '|'
     << degraded_reads << '|' << mitigated_reads;
  return fp.str();
}

// Member 3 dies 200 ms into the BIZA runs (402 and 528 ms of virtual time),
// at a seventh of the ZapRAID run (73 ms) and a twentieth of the mdraid run
// (6.4 s), so every case reads both mitigated and degraded.
TEST(FingerprintTest, BizaRaid5FaultPaths) {
  EXPECT_EQ(RunFaultPaths(PlatformKind::kBiza, 200 * kMillisecond),
            "3000|3|11653120|78237696|401819370|n=1387 avg=4417.8us "
            "p50=6094.8us p99=10616.8us p99.99=21233.7us max=21305.6us|n=1613 "
            "avg=158.8us p50=0.0us p99=3571.7us p99.99=8139.1us max=8139.1us|"
            "401819370|10437|862|72|73|65");
}

// RAID 6 (m = 2): degraded and reconstruct-around reads decode with
// Reed-Solomon.
TEST(FingerprintTest, BizaRaid6FaultPaths) {
  EXPECT_EQ(RunFaultPaths(PlatformKind::kBiza, 200 * kMillisecond,
                          /*num_parity=*/2),
            "3000|10|11661312|78237696|527894761|n=1387 avg=5700.0us "
            "p50=7405.6us p99=15335.4us p99.99=31195.1us max=31407.4us|n=1613 "
            "avg=306.3us p50=0.0us p99=4030.5us p99.99=16384.0us "
            "max=16422.5us|527894761|12594|2500|84|13|33");
}

TEST(FingerprintTest, ZapRaidFaultPaths) {
  EXPECT_EQ(RunFaultPaths(PlatformKind::kZapRaid, 10 * kMillisecond),
            "3000|17|11661312|78237696|73162335|n=1387 avg=468.1us "
            "p50=123.9us p99=3244.0us p99.99=3419.2us max=3419.2us|n=1613 "
            "avg=272.7us p50=0.0us p99=11141.1us p99.99=16106.3us "
            "max=16106.3us|103569983|3691|4196|33|37|34");
}

// Online rebuild. Member 1 dies inside a web-profile run; a fresh spare
// replaces it, and a second driver runs a web workload in the foreground
// while the sweep migrates. The digest folds both runs and the sweep's
// chunks_migrated, started_ns and finished_ns (not `passes`); the sweep
// must have finished and moved data, or the case no longer pins the path it
// is named for.
std::string RunRebuild(PlatformKind kind, SimTime death_ns,
                       int num_parity = 1) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.MatchConvCapacity();
  config.seed = 1;
  config.biza.num_parity = num_parity;
  config.faults.Device(1).die_at = death_ns;
  auto platform = Platform::Create(&sim, kind, config);

  TraceProfile profile = TraceProfile::Web();
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, /*iodepth=*/16,
                /*verify_reads=*/true);
  const DriverReport before = driver.Run(/*max_requests=*/3000, 60 * kSecond);
  std::ostringstream fp;
  fp << Digest(before, sim, *platform) << '|';
  EXPECT_GT(platform->faults()->stats().unavailable_rejections, 0u)
      << "member 1 never died inside the run";

  const Status replaced = platform->ReplaceMember(&sim, 1);
  EXPECT_TRUE(replaced.ok()) << replaced.ToString();
  profile.seed++;
  SyntheticTrace foreground_trace(profile);
  Driver foreground(&sim, platform->block(), &foreground_trace,
                    /*iodepth=*/16, /*verify_reads=*/true);
  const DriverReport during =
      foreground.Run(/*max_requests=*/3000, 60 * kSecond);
  sim.RunUntilIdle();

  const RebuildStats& p = *platform->rebuild();
  EXPECT_FALSE(p.active) << "the sweep never finished";
  EXPECT_GT(p.chunks_migrated, 0u) << "the sweep moved nothing";
  EXPECT_GT(p.finished_ns, p.started_ns) << "the sweep never finished";
  fp << Digest(during, sim, *platform) << '|' << p.chunks_migrated << '|'
     << p.started_ns << '|' << p.finished_ns;
  return fp.str();
}

TEST(FingerprintTest, BizaRaid5Rebuild) {
  EXPECT_EQ(RunRebuild(PlatformKind::kBiza, 5 * kMillisecond),
            "3000|2|11640832|78237696|9419919|n=1387 avg=104.2us p50=65.0us "
            "p99=712.7us p99.99=971.5us max=971.5us|n=1613 avg=3.3us "
            "p50=0.0us p99=55.8us p99.99=107.5us max=107.5us|9419919|10075|"
            "827|3000|9|11653120|81821696|12169729|n=1360 avg=93.4us "
            "p50=64.0us p99=548.9us p99.99=745.5us max=746.9us|n=1640 "
            "avg=40.5us p50=0.0us p99=323.6us p99.99=356.4us max=356.7us|"
            "27520992|31000|4174|1893|9419919|27520992");
}

// RAID 6 (m = 2): the sweep re-homes the replaced member's stripes with
// both parity rows.
TEST(FingerprintTest, BizaRaid6Rebuild) {
  EXPECT_EQ(RunRebuild(PlatformKind::kBiza, 5 * kMillisecond,
                       /*num_parity=*/2),
            "3000|4|11653120|78237696|8321054|n=1387 avg=89.6us p50=66.6us "
            "p99=348.2us p99.99=471.0us max=473.8us|n=1613 avg=5.1us "
            "p50=0.0us p99=74.8us p99.99=115.7us max=116.0us|8335041|15182|"
            "1829|3000|12|11653120|81821696|15970107|n=1360 avg=76.2us "
            "p50=65.0us p99=194.6us p99.99=380.9us max=383.6us|n=1640 "
            "avg=89.4us p50=0.0us p99=1097.7us p99.99=2588.7us max=2620.2us|"
            "31440378|44757|8792|1848|8335041|31440378");
}

TEST(FingerprintTest, ZapRaidRebuild) {
  EXPECT_EQ(RunRebuild(PlatformKind::kZapRaid, 5 * kMillisecond),
            "3000|0|11661312|78237696|15132485|n=1387 avg=164.7us "
            "p50=161.8us p99=282.6us p99.99=311.6us max=311.6us|n=1613 "
            "avg=7.9us p50=0.0us p99=111.6us p99.99=173.0us max=173.0us|"
            "15132485|2249|4074|3000|4|11653120|81821696|15269576|n=1360 "
            "avg=155.1us p50=153.6us p99=243.7us p99.99=299.0us max=302.1us|"
            "n=1640 avg=19.7us p50=0.0us p99=219.1us p99.99=266.2us "
            "max=267.0us|30402061|8736|9142|752|15132485|20666006");
}

// mdraid sweeps only the stripes a child write touched (its written-stripe
// bitmap): 1 243 of the child's 65 536 here.
TEST(FingerprintTest, MdraidConvRebuild) {
  EXPECT_EQ(RunRebuild(PlatformKind::kMdraidConv, 5 * kMillisecond),
            "3000|12|11661312|78237696|67783334|n=1387 avg=1.5us p50=1.4us "
            "p99=6.3us p99.99=11.1us max=11.2us|n=1613 avg=667.8us "
            "p50=679.9us p99=1130.5us p99.99=1221.4us max=1221.4us|71183646|"
            "66504|2928|3000|12|11653120|81821696|76633908|n=1360 avg=1.5us "
            "p50=1.4us p99=5.6us p99.99=9.1us max=9.1us|n=1640 avg=744.0us "
            "p50=712.7us p99=1196.0us p99.99=1294.3us max=1307.7us|"
            "148774178|150499|8096|1243|71183646|148774178");
}

TEST(FingerprintTest, MdraidConvFaultPaths) {
  EXPECT_EQ(RunFaultPaths(PlatformKind::kMdraidConv, 300 * kMillisecond),
            "3000|1|11661312|78237696|6398993980|n=1387 avg=38828.1us "
            "p50=2.8us p99=796917.8us p99.99=830179.2us max=830179.2us|n=1613 "
            "avg=30057.3us p50=778.2us p99=224395.3us p99.99=364904.4us "
            "max=366577.9us|7003365155|75869|2478|408|2362|2283");
}

}  // namespace
}  // namespace biza
