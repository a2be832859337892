#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/sketch.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::HexBytes;
using testing::kTestSeed;

SketchMetadata MakeMeta() {
  SketchMetadata meta;
  meta.transform = TransformKind::kSjltBlock;
  meta.input_dim = 100;
  meta.output_dim = 4;
  meta.sparsity = 2;
  meta.projection_seed = kTestSeed;
  meta.placement = NoisePlacement::kOutput;
  meta.noise_kind = NoiseDistribution::Kind::kLaplace;
  meta.noise_scale = 1.5;
  meta.noise_center = 4.0 * 2.0 * 1.5 * 1.5;
  meta.epsilon = 1.0;
  meta.delta = 0.0;
  return meta;
}

TEST(SketchTest, RawSquaredNorm) {
  PrivateSketch s({1.0, -2.0, 2.0, 0.0}, MakeMeta());
  EXPECT_DOUBLE_EQ(s.RawSquaredNorm(), 9.0);
}

TEST(SketchTest, SerializeRoundTrip) {
  const PrivateSketch original({0.5, -1.25, 3.75, 42.0}, MakeMeta());
  const std::string bytes = original.Serialize();
  const PrivateSketch decoded = PrivateSketch::Deserialize(bytes).value();
  EXPECT_EQ(decoded.values(), original.values());
  const SketchMetadata& m = decoded.metadata();
  const SketchMetadata& o = original.metadata();
  EXPECT_EQ(m.transform, o.transform);
  EXPECT_EQ(m.input_dim, o.input_dim);
  EXPECT_EQ(m.output_dim, o.output_dim);
  EXPECT_EQ(m.sparsity, o.sparsity);
  EXPECT_EQ(m.projection_seed, o.projection_seed);
  EXPECT_EQ(m.placement, o.placement);
  EXPECT_EQ(m.noise_kind, o.noise_kind);
  EXPECT_DOUBLE_EQ(m.noise_scale, o.noise_scale);
  EXPECT_DOUBLE_EQ(m.noise_center, o.noise_center);
  EXPECT_DOUBLE_EQ(m.epsilon, o.epsilon);
  EXPECT_DOUBLE_EQ(m.delta, o.delta);
}

TEST(SketchTest, DeserializeRejectsBadMagic) {
  std::string bytes = PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  bytes[0] = 'X';
  const auto result = PrivateSketch::Deserialize(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(SketchTest, DeserializeRejectsTruncation) {
  const std::string bytes =
      PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  for (size_t cut : {size_t{4}, size_t{20}, bytes.size() - 3}) {
    const auto result = PrivateSketch::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(SketchTest, DeserializeRejectsTrailingGarbage) {
  std::string bytes = PrivateSketch({1.0, 2.0, 3.0, 4.0}, MakeMeta()).Serialize();
  bytes += "extra";
  EXPECT_FALSE(PrivateSketch::Deserialize(bytes).ok());
}

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t ToBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(SketchTest, SerializeBytesAreGoldenIncludingNonFiniteValues) {
  // The sketch blob is also the index snapshot's per-row record, so these
  // bytes are a persisted format: -0.0, a subnormal, both infinities and a
  // NaN with a payload must cross Serialize/Deserialize bit for bit.
  SketchMetadata meta = MakeMeta();
  meta.output_dim = 6;
  const std::vector<double> values = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      FromBits(0x7ff80000deadbeefULL),
      0.1};
  const PrivateSketch sketch(values, meta);
  const std::string bytes = sketch.Serialize();
  EXPECT_EQ(HexBytes(bytes),
      "44504a4c534b3031"  // magic DPJLSK01
      "02000000"  // transform
      "6400000000000000"  // input_dim
      "0600000000000000"  // output_dim
      "0200000000000000"  // sparsity
      "00eeffc0117ae5d9"  // projection_seed
      "00000000"  // placement
      "01000000"  // noise_kind
      "000000000000f83f"  // noise_scale
      "0000000000003240"  // noise_center
      "000000000000f03f"  // epsilon
      "0000000000000000"  // delta
      "0600000000000000"  // value count
      "0000000000000080"  // -0.0
      "0100000000000000"  // denorm_min
      "000000000000f07f"  // +inf
      "000000000000f0ff"  // -inf
      "efbeadde0000f87f"  // NaN payload
      "9a9999999999b93f");  // 0.1

  const Result<PrivateSketch> back = PrivateSketch::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->values().size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(ToBits(back->values()[i]), ToBits(values[i])) << "value " << i;
  }
  EXPECT_EQ(back->Serialize(), bytes);
}

TEST(SketchTest, DeserializeRejectsAValueCountWhoseByteSizeWraps) {
  // output_dim and the value count both read 2^61 + 4: 8 * (2^61 + 4)
  // wraps to 32, which matches the 32 value bytes that follow. The blob
  // must be refused before anything is allocated for it.
  constexpr int64_t kWrapping = (int64_t{1} << 61) + 4;
  SketchMetadata meta = MakeMeta();
  std::string bytes = PrivateSketch({1.0, 2.0, 3.0, 4.0}, meta).Serialize();
  constexpr size_t kOutputDimOffset = 8 + 4 + 8;
  const size_t count_offset = bytes.size() - 4 * sizeof(double) - 8;
  std::memcpy(bytes.data() + kOutputDimOffset, &kWrapping, sizeof(kWrapping));
  std::memcpy(bytes.data() + count_offset, &kWrapping, sizeof(kWrapping));
  const Result<PrivateSketch> result = PrivateSketch::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << result.status();
}

TEST(SketchMetadataTest, CompatibilityIgnoresNoiseFields) {
  SketchMetadata a = MakeMeta();
  SketchMetadata b = MakeMeta();
  b.noise_scale = 99.0;
  b.epsilon = 0.1;
  b.noise_kind = NoiseDistribution::Kind::kGaussian;
  EXPECT_TRUE(a.CompatibleWith(b));  // heterogeneous noise is fine
}

TEST(SketchMetadataTest, CompatibilityRequiresSameProjection) {
  const SketchMetadata a = MakeMeta();
  SketchMetadata b = MakeMeta();
  b.projection_seed = kTestSeed + 1;
  EXPECT_FALSE(a.CompatibleWith(b));
  SketchMetadata c = MakeMeta();
  c.transform = TransformKind::kSjltGraph;
  EXPECT_FALSE(a.CompatibleWith(c));
  SketchMetadata d = MakeMeta();
  d.output_dim = 8;
  EXPECT_FALSE(a.CompatibleWith(d));
  SketchMetadata e = MakeMeta();
  e.input_dim = 101;
  EXPECT_FALSE(a.CompatibleWith(e));
  SketchMetadata f = MakeMeta();
  f.sparsity = 4;
  EXPECT_FALSE(a.CompatibleWith(f));
}

}  // namespace
}  // namespace dpjl
