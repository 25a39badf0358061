// Model-based property test of the ZNS device: a long random sequence of
// zone operations is applied both to the simulated device and to a tiny
// reference model (plain maps + the spec rules); every observable — status
// codes, read contents, write pointers, zone states — must agree.
//
// Also covers the small-zone device class of §6 (PM1731a-like geometry:
// tiny zones, 64 KiB ZRWA, hundreds of open zones) by sweeping geometries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/biza/biza_array.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"
#include "tests/test_util.h"

namespace biza {
namespace {

// Reference model of one ZRWA zone per the NVMe rules this repo implements.
struct RefZone {
  bool open = false;
  bool with_zrwa = false;
  bool full = false;
  uint64_t flush_ptr = 0;
  std::map<uint64_t, uint64_t> content;  // offset -> pattern

  uint64_t HighWater() const {
    return content.empty() ? 0 : content.rbegin()->first + 1;
  }
};

struct GeometryParam {
  const char* name;
  uint64_t zone_cap;
  uint32_t zrwa_blocks;
  int max_open;
};

class ZnsModelTest : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(ZnsModelTest, RandomOpsMatchReferenceModel) {
  const GeometryParam geo = GetParam();
  Simulator sim;
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, geo.zone_cap);
  config.zrwa_blocks = geo.zrwa_blocks;
  config.max_open_zones = geo.max_open;
  config.dispatch_jitter_ns = 0;  // the model is order-exact
  ZnsDevice dev(&sim, config);

  std::vector<RefZone> ref(8);
  int ref_open = 0;
  Rng rng(geo.zone_cap * 31 + geo.zrwa_blocks);

  for (int step = 0; step < 4000; ++step) {
    const uint32_t zone = static_cast<uint32_t>(rng.Uniform(8));
    RefZone& rz = ref[zone];
    switch (rng.Uniform(6)) {
      case 0: {  // open with ZRWA
        const Status status = dev.OpenZone(zone, true);
        if (rz.open) {
          EXPECT_EQ(status.ok(), rz.with_zrwa);
        } else if (rz.full) {
          EXPECT_FALSE(status.ok());
        } else if (ref_open >= geo.max_open) {
          EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted);
        } else if (!rz.with_zrwa && !rz.content.empty()) {
          // Closed zone previously opened without ZRWA.
          EXPECT_FALSE(status.ok());
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
          rz.open = true;
          rz.with_zrwa = true;
          ref_open++;
        }
        break;
      }
      case 1: {  // ZRWA write within / beyond window
        if (!rz.open || !rz.with_zrwa || rz.full) {
          break;
        }
        const uint64_t span = 1 + rng.Uniform(4);
        const uint64_t max_start = geo.zone_cap - span;
        // Mostly target the window; sometimes stray behind it.
        uint64_t offset;
        if (rng.Chance(0.15) && rz.flush_ptr > 0) {
          offset = rng.Uniform(rz.flush_ptr);  // behind: must fail
        } else {
          const uint64_t lo = rz.flush_ptr;
          const uint64_t hi =
              std::min<uint64_t>(lo + geo.zrwa_blocks + 8, max_start);
          offset = hi > lo ? lo + rng.Uniform(hi - lo + 1) : lo;
        }
        std::vector<uint64_t> patterns(span);
        for (auto& pattern : patterns) {
          pattern = rng.Next();
        }
        const Status status =
            ZnsWriteSync(&sim, &dev, zone, offset, patterns);
        const uint64_t end = offset + span;
        if (offset < rz.flush_ptr || end > geo.zone_cap) {
          EXPECT_FALSE(status.ok()) << "zone " << zone << " off " << offset;
          break;
        }
        ASSERT_TRUE(status.ok()) << status.ToString();
        if (end > rz.flush_ptr + geo.zrwa_blocks) {
          rz.flush_ptr = end - geo.zrwa_blocks;  // implicit commit
        }
        for (uint64_t i = 0; i < span; ++i) {
          rz.content[offset + i] = patterns[i];
        }
        break;
      }
      case 2: {  // read and compare
        const uint64_t span = 1 + rng.Uniform(4);
        const uint64_t offset = rng.Uniform(geo.zone_cap - span);
        auto result = ZnsReadSync(&sim, &dev, zone, offset, span);
        ASSERT_TRUE(result.ok());
        for (uint64_t i = 0; i < span; ++i) {
          auto it = rz.content.find(offset + i);
          const uint64_t expected = it == rz.content.end() ? 0 : it->second;
          EXPECT_EQ((*result)[i], expected)
              << "zone " << zone << " off " << offset + i << " step " << step;
        }
        break;
      }
      case 3: {  // report agrees
        const ZoneInfo info = dev.Report(zone);
        if (rz.full) {
          EXPECT_EQ(info.state, ZoneState::kFull);
        } else if (rz.open) {
          EXPECT_EQ(info.state, ZoneState::kOpen);
        }
        if (!rz.full) {
          EXPECT_EQ(info.write_pointer, rz.flush_ptr) << "zone " << zone;
        }
        EXPECT_EQ(info.high_water, rz.HighWater()) << "zone " << zone;
        break;
      }
      case 4: {  // finish
        if (!rz.open || rng.Chance(0.7)) {
          break;  // keep finishes rare so zones live long
        }
        ASSERT_TRUE(dev.FinishZone(zone).ok());
        rz.open = false;
        rz.full = true;
        rz.flush_ptr = geo.zone_cap;
        ref_open--;
        break;
      }
      case 5: {  // reset
        if (rng.Chance(0.8)) {
          break;
        }
        ASSERT_TRUE(dev.ResetZone(zone).ok());
        if (rz.open) {
          ref_open--;
        }
        rz = RefZone{};
        break;
      }
    }
  }
  EXPECT_EQ(dev.open_zone_count(), ref_open);
  EXPECT_LE(dev.stats().WriteAmplification(), 1.0);  // host >= flash always
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ZnsModelTest,
    ::testing::Values(GeometryParam{"zn540_like", 2048, 256, 14},
                      GeometryParam{"small_zone_pm1731a", 128, 16, 384},
                      GeometryParam{"tiny_zrwa", 512, 4, 8},
                      GeometryParam{"wide_zrwa", 512, 256, 6}),
    [](const ::testing::TestParamInfo<GeometryParam>& param_info) {
      return param_info.param.name;
    });

// BIZA on a small-zone device (§6: "our design can be employed on
// small-zone ZNS SSDs"): tiny zones, 64 KiB ZRWA, huge open-zone budget.
TEST(SmallZoneBiza, IntegrityAndAbsorptionOnPm1731aGeometry) {
  Simulator sim;
  std::vector<std::unique_ptr<ZnsDevice>> devs;
  std::vector<ZnsDevice*> ptrs;
  for (int d = 0; d < 4; ++d) {
    ZnsConfig dc = ZnsConfig::Zn540(/*num_zones=*/256, /*zone_cap=*/256);
    dc.zrwa_blocks = 16;  // 64 KiB, like the PM1731a
    dc.max_open_zones = 384;
    dc.seed = static_cast<uint64_t>(d) + 1;
    devs.push_back(std::make_unique<ZnsDevice>(&sim, dc));
    ptrs.push_back(devs.back().get());
  }
  BizaArray array(&sim, ptrs, BizaConfig{});

  Rng rng(5);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 4000; ++i) {
    // Hot head + cold tail, like a real workload.
    const uint64_t lbn = rng.Chance(0.5) ? rng.Uniform(64)
                                         : rng.Uniform(30000);
    const uint64_t value = rng.Next();
    truth[lbn] = value;
    Status status = InternalError("x");
    array.SubmitWrite(lbn, {value}, [&](const Status& s) { status = s; },
                      WriteTag::kData);
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
  }
  // The hot head must have been absorbed despite the tiny per-zone ZRWA.
  uint64_t absorbed = 0;
  for (auto& dev : devs) {
    absorbed += dev->stats().zrwa_absorbed_blocks;
  }
  EXPECT_GT(absorbed, 500u);
  // Integrity.
  int checked = 0;
  for (const auto& [lbn, expected] : truth) {
    if (checked++ > 400) {
      break;
    }
    std::vector<uint64_t> out;
    Status status = InternalError("x");
    array.SubmitRead(lbn, 1, [&](const Status& s, std::vector<uint64_t> p) {
      status = s;
      out = std::move(p);
    });
    sim.RunUntilIdle();
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(out.at(0), expected) << "lbn " << lbn;
  }
}

}  // namespace
}  // namespace biza
