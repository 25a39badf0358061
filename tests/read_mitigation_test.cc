// Tests of the shared gray-failure read policy (MitigateRead) with fake
// legs on a real Simulator: each leg completes after a set delay with a set
// status, and the test records which legs ran, what was delivered and when.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/health/device_health.h"
#include "src/health/read_mitigation.h"
#include "src/sim/simulator.h"

namespace biza {
namespace {

using Kind = DeviceHealthMonitor::Kind;

constexpr SimTime kBase = 100000;  // healthy peer read, 100 us
constexpr SimTime kSlow = 800000;  // 8x fail-slow member
constexpr SimTime kHedgeDelay = 2 * kBase;  // kHedgeMultiplier x peer q95
constexpr uint64_t kDirectPattern = 0xD1;
constexpr uint64_t kReconPattern = 0xEC;
constexpr int kMember = 1;

class ReadMitigationTest : public ::testing::Test {
 protected:
  ReadMitigationTest() : mon_(Config(), /*num_channels=*/4) {}

  static HealthConfig Config() {
    HealthConfig config;
    config.enabled = true;
    config.window_ios = 8;
    config.min_window_ns = 1000;
    config.probe_interval = 4;
    return config;
  }

  // One closed read window per peer at kBase, then `slow_windows` at kSlow
  // for the member: one makes it suspect, three make it gray.
  void Degrade(int slow_windows) {
    for (int d = 0; d < 4; ++d) {
      if (d != kMember) {
        Feed(d, kBase);
      }
    }
    for (int w = 0; w < slow_windows; ++w) {
      Feed(kMember, kSlow);
    }
  }
  void Feed(int device, SimTime latency) {
    for (int i = 0; i < 8; ++i) {
      sample_clock_ += 1000;
      mon_.RecordLatency(device, Kind::kRead, -1, latency, sample_clock_);
    }
  }

  ReadLegs Legs() {
    legs_built_++;
    return ReadLegs{
        .can_reconstruct = [this] { return reconstructable_; },
        .direct =
            [this](ReadLegs::Done done) {
              directs_++;
              sim_.Schedule(direct_ns_, [this, done] {
                done(direct_status_, kDirectPattern);
              });
            },
        .reconstruct =
            [this](ReadLegs::Done done) {
              recon_issued_at_.push_back(sim_.Now());
              sim_.Schedule(recon_ns_, [this, done] {
                done(recon_status_, kReconPattern);
              });
            },
        .deliver =
            [this](const Status& status, uint64_t pattern) {
              delivered_.push_back({status.code(), pattern});
              delivered_at_ = sim_.Now();
            },
        .fallback = [this] { fallbacks_++; },
        .redrive = [this] { redrives_++; },
    };
  }

  bool Read() {
    return MitigateRead(&sim_, &mon_, kMember, &stats_,
                        [this] { return Legs(); });
  }

  Simulator sim_;
  DeviceHealthMonitor mon_;
  ReadMitigationStats stats_;
  SimTime sample_clock_ = 0;

  // Leg behaviour.
  bool reconstructable_ = true;
  SimTime direct_ns_ = 50000;
  Status direct_status_;
  SimTime recon_ns_ = 100000;
  Status recon_status_;

  // Observations.
  int legs_built_ = 0;
  int directs_ = 0;
  int fallbacks_ = 0;
  int redrives_ = 0;
  std::vector<SimTime> recon_issued_at_;
  std::vector<std::pair<ErrorCode, uint64_t>> delivered_;
  SimTime delivered_at_ = 0;
};

TEST_F(ReadMitigationTest, HealthyOrUnrebuildableReadsTakeThePlainPath) {
  EXPECT_FALSE(MitigateRead(&sim_, nullptr, kMember, &stats_,
                            [this] { return Legs(); }));
  Degrade(/*slow_windows=*/0);
  EXPECT_FALSE(Read());
  EXPECT_EQ(legs_built_, 0) << "healthy reads must not build legs";

  Degrade(/*slow_windows=*/3);
  ASSERT_TRUE(mon_.IsGray(kMember));
  reconstructable_ = false;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(Read());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(directs_, 0);
  EXPECT_TRUE(recon_issued_at_.empty());
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(stats_.hedged_reads + stats_.recon_around_reads +
                stats_.probe_reads,
            0u);
  // The probe schedule was not consulted: the 4th call is still the first
  // probe.
  EXPECT_FALSE(mon_.ProbeDue(kMember));
  EXPECT_FALSE(mon_.ProbeDue(kMember));
  EXPECT_FALSE(mon_.ProbeDue(kMember));
  EXPECT_TRUE(mon_.ProbeDue(kMember));
}

TEST_F(ReadMitigationTest, GrayReadIsReconstructedAround) {
  Degrade(/*slow_windows=*/3);
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  EXPECT_EQ(directs_, 0);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, ErrorCode::kOk);
  EXPECT_EQ(delivered_[0].second, kReconPattern);
  EXPECT_EQ(stats_.recon_around_reads, 1u);
  EXPECT_EQ(stats_.hedged_reads, 0u);
}

TEST_F(ReadMitigationTest, FailedGrayReconstructCallsTheFallback) {
  Degrade(/*slow_windows=*/3);
  recon_status_ = FailedPreconditionError("sources moved");
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  EXPECT_EQ(fallbacks_, 1);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(stats_.recon_fallbacks, 1u);
}

TEST_F(ReadMitigationTest, FastDirectLegNeverIssuesTheReconstruct) {
  Degrade(/*slow_windows=*/1);
  ASSERT_EQ(mon_.state(kMember), DeviceHealth::kSuspect);
  ASSERT_EQ(mon_.HedgeDelayNs(kMember), kHedgeDelay);
  direct_ns_ = kHedgeDelay / 4;
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  EXPECT_EQ(directs_, 1);
  EXPECT_TRUE(recon_issued_at_.empty());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].second, kDirectPattern);
  EXPECT_EQ(delivered_at_, direct_ns_);
  EXPECT_EQ(stats_.hedged_reads, 1u);
  EXPECT_EQ(stats_.hedge_recon_wins, 0u);
}

TEST_F(ReadMitigationTest, SlowDirectLegLosesToTheReconstruct) {
  Degrade(/*slow_windows=*/1);
  direct_ns_ = 10 * kHedgeDelay;
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  ASSERT_EQ(recon_issued_at_, std::vector<SimTime>{kHedgeDelay});
  // The late direct leg lands after the reconstruct and is ignored.
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].second, kReconPattern);
  EXPECT_EQ(delivered_at_, kHedgeDelay + recon_ns_);
  EXPECT_EQ(sim_.Now(), direct_ns_);
  EXPECT_EQ(stats_.hedge_recon_wins, 1u);
  EXPECT_EQ(redrives_, 0);
}

TEST_F(ReadMitigationTest, FailedReconstructLeavesDeliveryToTheDirectLeg) {
  Degrade(/*slow_windows=*/1);
  direct_ns_ = 10 * kHedgeDelay;
  recon_status_ = FailedPreconditionError("sources moved");
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  EXPECT_EQ(recon_issued_at_.size(), 1u);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].second, kDirectPattern);
  EXPECT_EQ(delivered_at_, direct_ns_);
  EXPECT_EQ(stats_.hedge_recon_wins, 0u);
  EXPECT_EQ(fallbacks_, 0);
}

TEST_F(ReadMitigationTest, UnavailableDirectLegRedrivesWithoutReconstruct) {
  Degrade(/*slow_windows=*/1);
  direct_ns_ = kHedgeDelay / 4;
  direct_status_ = UnavailableError("member died");
  ASSERT_TRUE(Read());
  sim_.RunUntilIdle();
  EXPECT_EQ(redrives_, 1);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_TRUE(recon_issued_at_.empty());
}

TEST_F(ReadMitigationTest, TimerRevalidatesBeforeReconstructing) {
  Degrade(/*slow_windows=*/1);
  direct_ns_ = 10 * kHedgeDelay;
  ASSERT_TRUE(Read());
  reconstructable_ = false;  // e.g. a sibling was overwritten meanwhile
  sim_.RunUntilIdle();
  EXPECT_TRUE(recon_issued_at_.empty());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].second, kDirectPattern);
}

TEST_F(ReadMitigationTest, EveryFourthGrayReadProbesAtDelayZero) {
  Degrade(/*slow_windows=*/3);
  direct_ns_ = 10 * kHedgeDelay;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Read());
  }
  EXPECT_EQ(directs_, 0);
  EXPECT_EQ(stats_.recon_around_reads, 3u);
  EXPECT_EQ(stats_.probe_reads, 0u);

  ASSERT_TRUE(Read());  // probe_interval = 4
  EXPECT_EQ(directs_, 1) << "a probe must reach the gray member";
  EXPECT_EQ(stats_.hedged_reads, 1u);
  EXPECT_EQ(stats_.probe_reads, 1u);
  sim_.RunUntilIdle();
  // All four reconstructs were issued at t = 0: three around the member and
  // the probe's race leg, whose timer has no delay.
  EXPECT_EQ(recon_issued_at_, std::vector<SimTime>(4, 0));
  EXPECT_EQ(stats_.hedge_recon_wins, 1u);
  EXPECT_EQ(delivered_.size(), 4u);
}

}  // namespace
}  // namespace biza
