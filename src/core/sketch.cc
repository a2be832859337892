#include "src/core/sketch.h"

#include <cstring>

#include "src/common/check.h"

namespace dpjl {

namespace {

constexpr char kMagic[8] = {'D', 'P', 'J', 'L', 'S', 'K', '0', '1'};

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& in, size_t* offset, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*offset + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

}  // namespace

bool SketchMetadata::CompatibleWith(const SketchMetadata& other) const {
  return transform == other.transform && input_dim == other.input_dim &&
         output_dim == other.output_dim && sparsity == other.sparsity &&
         projection_seed == other.projection_seed;
}

PrivateSketch::PrivateSketch(std::vector<double> values, SketchMetadata metadata)
    : values_(std::move(values)), metadata_(metadata) {
  DPJL_CHECK(static_cast<int64_t>(values_.size()) == metadata_.output_dim,
             "sketch length must equal the transform output dimension");
  // Ascending-index accumulation: the cached value is bit-identical to
  // what the former on-demand loop returned.
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  raw_squared_norm_ = acc;
}

std::string PrivateSketch::Serialize() const {
  std::string out;
  out.reserve(sizeof(kMagic) + 96 + values_.size() * sizeof(double));
  out.append(kMagic, sizeof(kMagic));
  AppendPod(&out, static_cast<int32_t>(metadata_.transform));
  AppendPod(&out, metadata_.input_dim);
  AppendPod(&out, metadata_.output_dim);
  AppendPod(&out, metadata_.sparsity);
  AppendPod(&out, metadata_.projection_seed);
  AppendPod(&out, static_cast<int32_t>(metadata_.placement));
  AppendPod(&out, static_cast<int32_t>(metadata_.noise_kind));
  AppendPod(&out, metadata_.noise_scale);
  AppendPod(&out, metadata_.noise_center);
  AppendPod(&out, metadata_.epsilon);
  AppendPod(&out, metadata_.delta);
  AppendPod(&out, static_cast<int64_t>(values_.size()));
  // The values' IEEE-754 bytes, host little-endian like every field above,
  // in one copy.
  out.append(reinterpret_cast<const char*>(values_.data()),
             values_.size() * sizeof(double));
  return out;
}

Result<PrivateSketch> PrivateSketch::Deserialize(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("bad sketch magic/version");
  }
  size_t offset = sizeof(kMagic);
  SketchMetadata meta;
  int32_t transform = 0;
  int32_t placement = 0;
  int32_t noise_kind = 0;
  int64_t count = 0;
  const bool header_ok =
      ReadPod(bytes, &offset, &transform) &&
      ReadPod(bytes, &offset, &meta.input_dim) &&
      ReadPod(bytes, &offset, &meta.output_dim) &&
      ReadPod(bytes, &offset, &meta.sparsity) &&
      ReadPod(bytes, &offset, &meta.projection_seed) &&
      ReadPod(bytes, &offset, &placement) &&
      ReadPod(bytes, &offset, &noise_kind) &&
      ReadPod(bytes, &offset, &meta.noise_scale) &&
      ReadPod(bytes, &offset, &meta.noise_center) &&
      ReadPod(bytes, &offset, &meta.epsilon) &&
      ReadPod(bytes, &offset, &meta.delta) && ReadPod(bytes, &offset, &count);
  if (!header_ok) {
    return Status::DataLoss("truncated sketch header");
  }
  if (count < 0 || count != meta.output_dim) {
    return Status::DataLoss("sketch value count does not match metadata");
  }
  // Divide, never multiply: 8 * count wraps for a crafted count near 2^61
  // and would pass an equality test against the remaining byte count.
  const size_t remaining = bytes.size() - offset;
  if (static_cast<uint64_t>(count) != remaining / sizeof(double) ||
      remaining % sizeof(double) != 0) {
    return Status::DataLoss("sketch payload size mismatch");
  }
  meta.transform = static_cast<TransformKind>(transform);
  meta.placement = static_cast<NoisePlacement>(placement);
  meta.noise_kind = static_cast<NoiseDistribution::Kind>(noise_kind);
  std::vector<double> values(static_cast<size_t>(count));
  if (remaining > 0) {
    std::memcpy(values.data(), bytes.data() + offset, remaining);
  }
  return PrivateSketch(std::move(values), meta);
}

}  // namespace dpjl
