// Tests for the RAID substrate: GF(256) field axioms, Reed-Solomon coding
// under every erasure pattern, and the left-asymmetric stripe geometry.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/raid/geometry.h"
#include "src/raid/gf256.h"
#include "src/raid/reed_solomon.h"

namespace biza {
namespace {

// ----------------------------------------------------------------- gf256 --

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(Gf256::Mul(1, static_cast<uint8_t>(a)), a);
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, MulCommutative) {
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b = static_cast<uint8_t>(rng.Uniform(256));
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
  }
}

TEST(Gf256, MulAssociative) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t c = static_cast<uint8_t>(rng.Uniform(256));
    EXPECT_EQ(Gf256::Mul(Gf256::Mul(a, b), c), Gf256::Mul(a, Gf256::Mul(b, c)));
  }
}

TEST(Gf256, DistributesOverXor) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t c = static_cast<uint8_t>(rng.Uniform(256));
    EXPECT_EQ(Gf256::Mul(a, static_cast<uint8_t>(b ^ c)),
              Gf256::Mul(a, b) ^ Gf256::Mul(a, c));
  }
}

TEST(Gf256, EveryNonZeroHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t inv = Gf256::Inv(static_cast<uint8_t>(a));
    EXPECT_EQ(Gf256::Mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256, DivIsMulByInverse) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b = static_cast<uint8_t>(1 + rng.Uniform(255));
    EXPECT_EQ(Gf256::Div(a, b), Gf256::Mul(a, Gf256::Inv(b)));
  }
}

TEST(Gf256, ExpGeneratorCyclesThroughField) {
  std::vector<bool> seen(256, false);
  for (int p = 0; p < 255; ++p) {
    const uint8_t v = Gf256::Exp(p);
    EXPECT_FALSE(seen[v]) << "duplicate at power " << p;
    seen[v] = true;
  }
  EXPECT_FALSE(seen[0]);  // zero is never a power of the generator
}

// ----------------------------------------------------------- reed-solomon --

struct RsParam {
  int k;
  int m;
};

class ReedSolomonTest : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReedSolomonTest, SurvivesEveryErasurePattern) {
  const auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  Rng rng(static_cast<uint64_t>(k * 100 + m));

  std::vector<uint64_t> data(static_cast<size_t>(k));
  for (auto& d : data) {
    d = rng.Next();
  }
  const std::vector<uint64_t> parity = rs.EncodePatterns(data);
  ASSERT_EQ(parity.size(), static_cast<size_t>(m));

  const int total = k + m;
  // Enumerate every erasure pattern with <= m losses.
  for (uint32_t mask = 0; mask < (1u << total); ++mask) {
    if (__builtin_popcount(mask) > m || mask == 0) {
      continue;
    }
    std::vector<uint64_t> shards;
    shards.insert(shards.end(), data.begin(), data.end());
    shards.insert(shards.end(), parity.begin(), parity.end());
    std::vector<bool> present(static_cast<size_t>(total), true);
    for (int i = 0; i < total; ++i) {
      if (mask & (1u << i)) {
        present[static_cast<size_t>(i)] = false;
        shards[static_cast<size_t>(i)] = 0xDEADBEEF;  // corrupt the erased
      }
    }
    ASSERT_TRUE(rs.ReconstructPatterns(shards, present).ok())
        << "k=" << k << " m=" << m << " mask=" << mask;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(shards[static_cast<size_t>(i)], data[static_cast<size_t>(i)])
          << "data shard " << i << " mask=" << mask;
    }
    for (int p = 0; p < m; ++p) {
      EXPECT_EQ(shards[static_cast<size_t>(k + p)],
                parity[static_cast<size_t>(p)])
          << "parity shard " << p << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReedSolomonTest,
    ::testing::Values(RsParam{2, 1}, RsParam{3, 1}, RsParam{3, 2},
                      RsParam{4, 2}, RsParam{6, 2}, RsParam{8, 3},
                      RsParam{10, 4}),
    [](const ::testing::TestParamInfo<RsParam>& param_info) {
      return "k" + std::to_string(param_info.param.k) + "m" +
             std::to_string(param_info.param.m);
    });

TEST(ReedSolomon, TooManyErasuresFails) {
  ReedSolomon rs(3, 1);
  std::vector<uint64_t> shards{1, 2, 3, 0};
  std::vector<bool> present{false, false, true, true};
  EXPECT_EQ(rs.ReconstructPatterns(shards, present).code(),
            ErrorCode::kDataLoss);
}

TEST(ReedSolomon, NoErasuresIsNoOp) {
  ReedSolomon rs(3, 2);
  std::vector<uint64_t> data{10, 20, 30};
  auto parity = rs.EncodePatterns(data);
  std::vector<uint64_t> shards{10, 20, 30, parity[0], parity[1]};
  std::vector<bool> present(5, true);
  EXPECT_TRUE(rs.ReconstructPatterns(shards, present).ok());
  EXPECT_EQ(shards[0], 10u);
}

TEST(ReedSolomon, EncodeBytesMatchesPatternEncoding) {
  ReedSolomon rs(3, 2);
  Rng rng(77);
  std::vector<uint64_t> data{rng.Next(), rng.Next(), rng.Next()};
  const auto parity = rs.EncodePatterns(data);

  uint8_t d0[8], d1[8], d2[8], p0[8], p1[8];
  memcpy(d0, &data[0], 8);
  memcpy(d1, &data[1], 8);
  memcpy(d2, &data[2], 8);
  const uint8_t* in[3] = {d0, d1, d2};
  uint8_t* out[2] = {p0, p1};
  rs.EncodeBytes(in, out, 8);
  uint64_t q0, q1;
  memcpy(&q0, p0, 8);
  memcpy(&q1, p1, 8);
  EXPECT_EQ(q0, parity[0]);
  EXPECT_EQ(q1, parity[1]);
}

TEST(XorParity, IsSelfInverse) {
  Rng rng(5);
  std::vector<uint64_t> data{rng.Next(), rng.Next(), rng.Next()};
  const uint64_t parity = XorParity(data);
  // Reconstruct member 1 from parity ^ others.
  EXPECT_EQ(parity ^ data[0] ^ data[2], data[1]);
}

// RS(k, 1) is not RAID 5. Its parity row is all ones only for some k — k = 3,
// the default four-member array, is one of them — so k = 4 shows the
// difference. An XOR stripe must never be encoded, updated or decoded with
// the Reed-Solomon codec.
TEST(XorParity, DiffersFromReedSolomonWithOneParity) {
  Rng rng(6);
  std::vector<uint64_t> data{rng.Next(), rng.Next(), rng.Next(), rng.Next()};
  const ReedSolomon rs(/*k=*/4, /*m=*/1);
  EXPECT_NE(rs.EncodePatterns(data)[0], XorParity(data));
  EXPECT_NE(rs.UpdateParityPattern(0, 0, XorParity(data), data[0], 0),
            XorParity(data) ^ data[0]);
}

// -------------------------------------------------------------- geometry --

class GeometryTest : public ::testing::TestWithParam<int> {};

TEST_P(GeometryTest, ParityRotatesAcrossAllDrives) {
  StripeGeometry g;
  g.num_drives = GetParam();
  g.num_parity = 1;
  std::vector<int> parity_count(static_cast<size_t>(g.num_drives), 0);
  for (uint64_t s = 0; s < 1000; ++s) {
    parity_count[static_cast<size_t>(g.ParityDrive(s))]++;
  }
  for (int d = 0; d < g.num_drives; ++d) {
    EXPECT_GT(parity_count[static_cast<size_t>(d)], 0) << "drive " << d;
  }
}

TEST_P(GeometryTest, EachStripeCoversEveryDriveOnce) {
  StripeGeometry g;
  g.num_drives = GetParam();
  g.num_parity = 1;
  for (uint64_t s = 0; s < 64; ++s) {
    std::vector<bool> used(static_cast<size_t>(g.num_drives), false);
    used[static_cast<size_t>(g.ParityDrive(s))] = true;
    for (int d = 0; d < g.data_per_stripe(); ++d) {
      const int drive = g.DataDrive(s, d);
      EXPECT_FALSE(used[static_cast<size_t>(drive)])
          << "stripe " << s << " slot " << d;
      used[static_cast<size_t>(drive)] = true;
    }
    for (bool u : used) {
      EXPECT_TRUE(u);
    }
  }
}

TEST_P(GeometryTest, DataSlotOfInvertsDataDrive) {
  StripeGeometry g;
  g.num_drives = GetParam();
  g.num_parity = 1;
  for (uint64_t s = 0; s < 64; ++s) {
    for (int slot = 0; slot < g.data_per_stripe(); ++slot) {
      const int drive = g.DataDrive(s, slot);
      EXPECT_EQ(g.DataSlotOf(s, drive), slot);
    }
    EXPECT_EQ(g.DataSlotOf(s, g.ParityDrive(s)), -1);
  }
}

INSTANTIATE_TEST_SUITE_P(DriveCounts, GeometryTest, ::testing::Values(3, 4, 5, 8));

TEST(Geometry, LeftAsymmetricParityPlacement) {
  // RAID 5 left-asymmetric on 4 drives: parity = drive 3, 2, 1, 0, 3, ...
  StripeGeometry g;
  g.num_drives = 4;
  g.num_parity = 1;
  EXPECT_EQ(g.ParityDrive(0), 3);
  EXPECT_EQ(g.ParityDrive(1), 2);
  EXPECT_EQ(g.ParityDrive(2), 1);
  EXPECT_EQ(g.ParityDrive(3), 0);
  EXPECT_EQ(g.ParityDrive(4), 3);
}

TEST(Geometry, Raid6ParityPairsAreDistinct) {
  StripeGeometry g;
  g.num_drives = 5;
  g.num_parity = 2;
  for (uint64_t s = 0; s < 100; ++s) {
    EXPECT_NE(g.ParityDrive(s, 0), g.ParityDrive(s, 1));
  }
}

// The per-call loops DataDrive and DataSlotOf used before their closed
// forms: mark the parity drives, then count the others in ascending order.
int ReferenceDataDrive(const StripeGeometry& g, uint64_t stripe, int d) {
  std::vector<bool> is_parity(static_cast<size_t>(g.num_drives), false);
  for (int p = 0; p < g.num_parity; ++p) {
    is_parity[static_cast<size_t>(g.ParityDrive(stripe, p))] = true;
  }
  int seen = 0;
  for (int drive = 0; drive < g.num_drives; ++drive) {
    if (is_parity[static_cast<size_t>(drive)]) {
      continue;
    }
    if (seen == d) {
      return drive;
    }
    seen++;
  }
  return -1;
}

int ReferenceDataSlotOf(const StripeGeometry& g, uint64_t stripe,
                        int drive) {
  auto is_parity = [&](int d) {
    for (int p = 0; p < g.num_parity; ++p) {
      if (g.ParityDrive(stripe, p) == d) {
        return true;
      }
    }
    return false;
  };
  if (is_parity(drive)) {
    return -1;
  }
  int slot = 0;
  for (int d = 0; d < drive; ++d) {
    if (!is_parity(d)) {
      slot++;
    }
  }
  return slot;
}

TEST(Geometry, ClosedFormsMatchTheReferenceLoops) {
  for (int n = 3; n <= 8; ++n) {
    for (int m = 1; m <= 3 && m < n; ++m) {
      StripeGeometry g;
      g.num_drives = n;
      g.num_parity = m;
      for (uint64_t s = 0; s < 3 * static_cast<uint64_t>(n); ++s) {
        for (int d = 0; d < g.data_per_stripe(); ++d) {
          EXPECT_EQ(g.DataDrive(s, d), ReferenceDataDrive(g, s, d))
              << "n=" << n << " m=" << m << " stripe " << s << " slot " << d;
        }
        for (int drive = 0; drive < n; ++drive) {
          EXPECT_EQ(g.DataSlotOf(s, drive), ReferenceDataSlotOf(g, s, drive))
              << "n=" << n << " m=" << m << " stripe " << s << " drive "
              << drive;
        }
      }
    }
  }
}

TEST(Geometry, LocateMapsBlocks) {
  StripeGeometry g;
  g.num_drives = 4;
  g.num_parity = 1;
  g.chunk_blocks = 1;
  const auto loc = g.Locate(7);  // stripe 2 (k=3), slot 1
  EXPECT_EQ(loc.stripe, 2u);
  EXPECT_EQ(loc.data_slot, 1);
  EXPECT_EQ(loc.block_in_chunk, 0u);
}

}  // namespace
}  // namespace biza
