// Tests of the workload generators, trace statistics, and drivers —
// including the checks that the Table 6 presets actually reproduce the
// paper's workload characteristics and reuse-distance claims.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/app_workloads.h"
#include "src/workload/driver.h"
#include "src/workload/trace_stats.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

TEST(MicroWorkload, SequentialAdvancesAndWraps) {
  MicroWorkload wl(true, true, 16, 64, 1);
  EXPECT_EQ(wl.Next().offset_blocks, 0u);
  EXPECT_EQ(wl.Next().offset_blocks, 16u);
  EXPECT_EQ(wl.Next().offset_blocks, 32u);
  EXPECT_EQ(wl.Next().offset_blocks, 48u);
  EXPECT_EQ(wl.Next().offset_blocks, 0u);  // wrapped
}

TEST(MicroWorkload, RandomStaysInFootprintAndAligned) {
  MicroWorkload wl(false, true, 8, 4096, 2);
  for (int i = 0; i < 1000; ++i) {
    const BlockRequest req = wl.Next();
    EXPECT_LE(req.offset_blocks + req.nblocks, 4096u);
    EXPECT_EQ(req.offset_blocks % 8, 0u);
    EXPECT_TRUE(req.is_write);
  }
}

class Table6Test : public ::testing::TestWithParam<int> {};

TEST_P(Table6Test, PresetMatchesPaperCharacteristics) {
  const auto profiles = TraceProfile::AllTable6();
  const TraceProfile& profile = profiles[static_cast<size_t>(GetParam())];
  SyntheticTrace trace(profile);
  TraceStats stats;
  for (int i = 0; i < 60000; ++i) {
    stats.Observe(trace.Next());
  }
  // Write ratio within 3 percentage points of Table 6.
  EXPECT_NEAR(stats.write_ratio(), profile.write_ratio, 0.03)
      << profile.name;
  // Average write size within 40% of the preset (the size mixture is
  // intentionally dispersed around the mean).
  if (profile.write_ratio > 0.05) {
    EXPECT_NEAR(stats.avg_write_kb(),
                static_cast<double>(profile.avg_write_blocks * 4),
                static_cast<double>(profile.avg_write_blocks * 4) * 0.4)
        << profile.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, Table6Test, ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return TraceProfile::AllTable6()
                               [static_cast<size_t>(param_info.param)].name;
                         });

TEST(TraceProfiles, CasaReusesShortTencentReusesLong) {
  // §5.4: 91.7% of casa's chunks reuse within 56 MiB; 90.2% of tencent's
  // reuse beyond it. Verify the ordering (and rough magnitudes) hold.
  auto run = [](const TraceProfile& profile) {
    SyntheticTrace trace(profile);
    TraceStats stats;
    for (int i = 0; i < 300000; ++i) {
      stats.Observe(trace.Next());
    }
    return stats.ReuseCdfAt(56 * kMiB);
  };
  const double casa = run(TraceProfile::Casa());
  const double tencent = run(TraceProfile::Tencent());
  EXPECT_GT(casa, 0.75);    // paper: 0.917
  EXPECT_LT(tencent, 0.35); // paper: 0.098
  EXPECT_GT(casa, tencent + 0.4);
}

TEST(TraceProfiles, SystorOnlySeventeenPercentWithinZrwaReach) {
  // Fig. 4: only ~17% of SYSTOR data reuses within 14 MiB.
  SyntheticTrace trace(TraceProfile::SystorLike());
  TraceStats stats;
  for (int i = 0; i < 300000; ++i) {
    stats.Observe(trace.Next());
  }
  EXPECT_NEAR(stats.ReuseCdfAt(14 * kMiB), 0.17, 0.08);
}

TEST(TraceStats, ExactReuseDistance) {
  TraceStats stats;
  auto write = [&stats](uint64_t off, uint64_t n) {
    stats.Observe(BlockRequest{off, n, true});
  };
  write(0, 1);   // first touch
  write(10, 2);  // two more blocks
  write(0, 1);   // reuse of block 0 after 3 blocks written -> 12 KiB
  ASSERT_EQ(stats.reuse_events(), 1u);
  EXPECT_DOUBLE_EQ(stats.ReuseCdfAt(12 * kKiB), 1.0);
  EXPECT_DOUBLE_EQ(stats.ReuseCdfAt(8 * kKiB), 0.0);
}

TEST(TraceStats, CdfIsMonotonic) {
  SyntheticTrace trace(TraceProfile::Web());
  TraceStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Observe(trace.Next());
  }
  const std::vector<uint64_t> thresholds{kMiB, 14 * kMiB, 56 * kMiB,
                                         256 * kMiB, 1024 * kMiB};
  const auto cdf = stats.ReuseCdf(thresholds);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_LE(cdf.back(), 1.0);
}

TEST(AppWorkloads, WebserverIsReadDominated) {
  AppWorkload wl(AppProfile::FilebenchWebserver());
  int writes = 0;
  for (int i = 0; i < 20000; ++i) {
    writes += wl.Next().is_write ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / 20000.0, 0.048, 0.01);
}

TEST(AppWorkloads, FillseqIsMostlySequentialLog) {
  AppWorkload wl(AppProfile::DbBenchFillseq());
  uint64_t last_end = 0;
  int sequential = 0;
  int data_writes = 0;
  for (int i = 0; i < 5000; ++i) {
    const BlockRequest req = wl.Next();
    if (!req.is_write || req.nblocks == 1) {
      continue;  // skip reads and metadata
    }
    data_writes++;
    if (req.offset_blocks == last_end) {
      sequential++;
    }
    last_end = req.offset_blocks + req.nblocks;
  }
  EXPECT_GT(sequential, data_writes * 8 / 10);
}

TEST(AppWorkloads, MetadataRegionIsHot) {
  AppWorkload wl(AppProfile::FilebenchOltp());
  const AppProfile profile = AppProfile::FilebenchOltp();
  int metadata_writes = 0;
  int writes = 0;
  for (int i = 0; i < 50000; ++i) {
    const BlockRequest req = wl.Next();
    if (req.is_write) {
      writes++;
      if (req.offset_blocks < profile.metadata_blocks && req.nblocks == 1) {
        metadata_writes++;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(metadata_writes) / writes,
              profile.metadata_fraction, 0.05);
}

TEST(Driver, ClosedLoopRespectsRequestCount) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  MicroWorkload wl(true, true, 8, 4096, 3);
  Driver driver(&sim, platform->block(), &wl, 4);
  auto report = driver.Run(100, 10 * kSecond);
  EXPECT_EQ(report.requests_completed, 100u);
  EXPECT_EQ(report.stranded_requests, 0u);
  EXPECT_EQ(report.bytes_written, 100u * 8 * kBlockSize);
  EXPECT_GT(report.elapsed_ns, 0u);
}

TEST(Driver, OpenLoopPacesArrivals) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  MicroWorkload wl(true, true, 1, 4096, 3);
  Driver driver(&sim, platform->block(), &wl, 64);
  driver.SetArrivalInterval(100 * kMicrosecond);
  auto report = driver.Run(1000, kSecond);
  EXPECT_EQ(report.requests_completed, 1000u);
  // 1000 arrivals at 100 us spacing ~ 100 ms of virtual time.
  EXPECT_GT(report.elapsed_ns, 95 * kMillisecond);
  EXPECT_LT(report.elapsed_ns, 120 * kMillisecond);
}

TEST(Driver, VerifyModeDetectsNoCorruption) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  // Write phase and read phase are separated: with concurrent reads and
  // writes to the same hot block, a read can legitimately return the
  // pre-write value, which is not corruption.
  TraceProfile writes_only = TraceProfile::Online();
  writes_only.write_ratio = 1.0;
  SyntheticTrace wtrace(writes_only);
  Driver writer(&sim, platform->block(), &wtrace, 8, /*verify_reads=*/true);
  writer.Run(3000, 30 * kSecond);
  TraceProfile reads_only = TraceProfile::Online();
  reads_only.write_ratio = 0.0;
  SyntheticTrace rtrace(reads_only);
  Driver reader(&sim, platform->block(), &rtrace, 8, /*verify_reads=*/false);
  auto report = reader.Run(1000, 30 * kSecond);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_GT(report.bytes_read, 0u);
}

// Completes its first `serve` requests a microsecond after submission and
// parks every later one for good, as a wedged array does.
class WedgingTarget : public BlockTarget {
 public:
  WedgingTarget(Simulator* sim, uint64_t serve) : sim_(sim), serve_(serve) {}
  uint64_t capacity_blocks() const override { return 1 << 20; }
  void SubmitWrite(uint64_t, std::vector<uint64_t>, WriteCallback cb,
                   WriteTag) override {
    Complete([cb = std::move(cb)] { cb(OkStatus()); });
  }
  void SubmitRead(uint64_t, uint64_t nblocks, ReadCallback cb) override {
    Complete([cb = std::move(cb), nblocks] {
      cb(OkStatus(), std::vector<uint64_t>(nblocks));
    });
  }

 private:
  void Complete(std::function<void()> done) {
    if (served_ < serve_) {
      ++served_;
      sim_->Schedule(kMicrosecond, std::move(done));
    } else {
      parked_.push_back(std::move(done));
    }
  }
  Simulator* sim_;
  uint64_t serve_;
  uint64_t served_ = 0;
  std::vector<std::function<void()>> parked_;
};

TEST(Driver, ReportsStrandedRequests) {
  Simulator sim;
  WedgingTarget target(&sim, /*serve=*/5);
  MicroWorkload wl(true, true, 1, 4096, 3);
  // Closed loop at depth 4: five requests complete, four stay in flight.
  Driver closed(&sim, &target, &wl, 4);
  DriverReport report = closed.Run(100, kSecond);
  EXPECT_EQ(report.requests_completed, 5u);
  EXPECT_EQ(report.stranded_requests, 4u);
  // Open loop at depth 2 against the wedged target: two requests park in
  // flight and the other eight arrivals never get a slot.
  Driver open(&sim, &target, &wl, 2);
  open.SetArrivalInterval(10 * kMicrosecond);
  report = open.Run(10, kSecond);
  EXPECT_EQ(report.requests_completed, 0u);
  EXPECT_EQ(report.stranded_requests, 10u);
}

TEST(Driver, FillWritesExpectedPatterns) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  Driver::Fill(&sim, platform->block(), 1000, 64, /*epoch=*/9);
  Status status = InternalError("x");
  std::vector<uint64_t> out;
  platform->block()->SubmitRead(
      123, 1, [&](const Status& s, std::vector<uint64_t> p) {
        status = s;
        out = std::move(p);
      });
  sim.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out[0], PatternFor(123, 9));
}

TEST(Platform, WaCollectionAggregatesDevices) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  Driver::Fill(&sim, platform->block(), 3000, 64);
  platform->Quiesce(&sim);
  const WaBreakdown wa = platform->CollectWa(3000);
  EXPECT_EQ(wa.user_blocks, 3000u);
  EXPECT_GT(wa.flash_total(), 0u);
  EXPECT_EQ(wa.flash_total(), platform->FlashProgrammedBlocks());
}

TEST(Platform, CpuBreakdownHasComponents) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kDmzapRaizn, config);
  Driver::Fill(&sim, platform->block(), 2000, 16);
  const auto cpu = platform->CpuBreakdown();
  EXPECT_GT(cpu.at("dmzap"), 0u);
  EXPECT_GT(cpu.at("raizn"), 0u);
  EXPECT_GT(cpu.at("io"), 0u);
}

TEST(Platform, KindNamesAreStable) {
  EXPECT_STREQ(PlatformKindName(PlatformKind::kBiza), "BIZA");
  EXPECT_STREQ(PlatformKindName(PlatformKind::kMdraidConv), "mdraid+ConvSSD");
  EXPECT_STREQ(PlatformKindName(PlatformKind::kDmzapRaizn), "dmzap+RAIZN");
}

TEST(ZonedSeqDriverTest, WritesSequentiallyAcrossZones) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(32, 512);
  auto platform = Platform::Create(&sim, PlatformKind::kRaizn, config);
  ZonedSeqDriver driver(&sim, platform->zoned(), 16, 4);
  auto report = driver.Run(500, 10 * kSecond);
  EXPECT_EQ(report.requests_completed, 500u);
  EXPECT_EQ(report.bytes_written, 500u * 16 * kBlockSize);
}

}  // namespace
}  // namespace biza
