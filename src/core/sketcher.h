#ifndef DPJL_CORE_SKETCHER_H_
#define DPJL_CORE_SKETCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/core/sketch.h"
#include "src/core/variance_model.h"
#include "src/dp/mechanism.h"
#include "src/jl/make_transform.h"
#include "src/linalg/sparse_vector.h"
#include "src/random/splitmix64.h"

namespace dpjl {

/// Seed-derivation contract for batch releases: item `index` of a batch
/// sketched under `base_noise_seed` uses exactly this noise seed (a
/// splitmix64 expansion of base ^ f(index), via DeriveSeed). The contract
/// is public API: a serial loop calling
///   sketcher.Sketch(xs[i], BatchItemNoiseSeed(base, i))
/// produces bit-identical output to PrivateSketcher::SketchBatch at any
/// thread count, and two parties that agree on `base` can reproduce each
/// other's batch seeds. Distinct batches must use distinct base seeds —
/// reusing a base across different inputs reuses noise, which voids the
/// privacy guarantee exactly like reusing a per-vector noise seed would.
inline uint64_t BatchItemNoiseSeed(uint64_t base_noise_seed, int64_t index) {
  return DeriveSeed(base_noise_seed, static_cast<uint64_t>(index));
}

/// Configuration for a PrivateSketcher. Defaults reproduce the paper's
/// recommended construction: block SJLT + automatically selected noise.
struct SketcherConfig {
  /// Projection family.
  TransformKind transform = TransformKind::kSjltBlock;

  /// JL quality target: distortion (1 +- alpha) with probability >= 1 - beta.
  double alpha = 0.1;
  double beta = 0.05;

  /// Optional explicit dimensions; 0 derives them from alpha/beta
  /// (k = Theta(alpha^-2 log 1/beta), s = Theta(alpha^-1 log 1/beta)).
  int64_t k_override = 0;
  int64_t s_override = 0;

  /// Privacy budget for each released sketch. delta == 0 requests pure DP
  /// (forces Laplace noise).
  double epsilon = 1.0;
  double delta = 0.0;

  /// Output perturbation (S x + eta) or input perturbation (S(x + eta));
  /// input placement requires the FJLT (Lemma 8).
  NoisePlacement placement = NoisePlacement::kOutput;

  /// Noise family. kAuto applies Note 5's variance-optimal rule.
  enum class NoiseSelection { kAuto, kLaplace, kGaussian, kNone };
  NoiseSelection noise_selection = NoiseSelection::kAuto;

  /// The *public* projection seed. Every party that wants comparable
  /// sketches must use the same value; it is embedded in released sketches.
  uint64_t projection_seed = 0x0DD5EEDULL;
};

/// The library's main entry point: builds the public projection once, then
/// turns input vectors into differentially private sketches
/// (Theorem 3 / Corollary 1 / Lemma 8 depending on configuration).
///
/// Thread-compatible: const methods are safe to call concurrently. The
/// noise stream is supplied per call via `noise_seed` — each party passes
/// its own secret seed, never shared (unlike the projection seed).
class PrivateSketcher {
 public:
  /// Validates the configuration and pays any sensitivity-initialization
  /// cost up front (O(dk) for unstructured transforms with output
  /// placement; O(1) for the SJLT — the paper's efficiency claim).
  static Result<PrivateSketcher> Create(int64_t d, const SketcherConfig& config);

  PrivateSketcher(PrivateSketcher&&) noexcept = default;
  PrivateSketcher& operator=(PrivateSketcher&&) noexcept = default;
  PrivateSketcher(const PrivateSketcher&) = delete;
  PrivateSketcher& operator=(const PrivateSketcher&) = delete;

  /// Releases a private sketch of `x` (size d). Deterministic in
  /// (projection_seed, noise_seed): re-sketching the same vector with the
  /// same seeds returns the identical sketch and consumes no extra budget.
  /// Distinct vectors must use distinct noise seeds.
  PrivateSketch Sketch(const std::vector<double>& x, uint64_t noise_seed) const;

  /// Sparse fast path: O(s ||x||_0 + k) for the SJLT (Theorem 3.5).
  PrivateSketch SketchSparse(const SparseVector& x, uint64_t noise_seed) const;

  /// Batch sketch: out[i] == Sketch(xs[i], BatchItemNoiseSeed(
  /// base_noise_seed, i)), bit-identical for any pool size (null runs
  /// serially on the caller). Chunks of BatchGrain items fan across `pool`;
  /// within a chunk the transform rides micro-blocks of kSketchBlockWidth
  /// vectors through the SIMD block kernels (src/linalg/kernels.h) while
  /// noise stays strictly per-item. Fails without sketching anything if any
  /// input has the wrong dimension.
  Result<std::vector<PrivateSketch>> SketchBatch(
      const std::vector<std::vector<double>>& xs, uint64_t base_noise_seed,
      ThreadPool* pool = nullptr) const;

  /// The chunk size SketchBatch uses for `batch_size` items on `threads`
  /// threads: ~4 chunks per thread for load balance, rounded up to a
  /// multiple of kSketchBlockWidth so SIMD micro-blocks run full, and never
  /// below one micro-block. Chunking affects scheduling only, never output
  /// (each item's noise seed is a pure function of its index).
  static int64_t BatchGrain(int64_t batch_size, int threads);

  /// Analytic estimator variance for a pair at squared distance `z2sq` with
  /// fourth-power norm `z4p4` (both parties using this configuration).
  VarianceBreakdown PredictVariance(double z2sq, double z4p4) const;

  const LinearTransform& transform() const { return *transform_; }
  const Mechanism& mechanism() const { return mechanism_; }
  NoisePlacement placement() const { return config_.placement; }
  const SketcherConfig& config() const { return config_; }
  int64_t input_dim() const { return transform_->input_dim(); }
  int64_t output_dim() const { return transform_->output_dim(); }

  /// The metadata stamped on every sketch this sketcher releases.
  SketchMetadata MetadataTemplate() const;

  std::string Describe() const;

 private:
  PrivateSketcher(SketcherConfig config, std::unique_ptr<LinearTransform> transform,
                  const Fjlt* fjlt_view, Mechanism mechanism, int64_t sparsity);

  /// out[i] = Sketch(xs[i], noise_seeds[i]) for i in [0, count), with the
  /// transform run as one matrix-form ApplyBlock call.
  void SketchBlock(const std::vector<double>* xs, int64_t count,
                   const uint64_t* noise_seeds, PrivateSketch* out) const;

  SketcherConfig config_;
  std::unique_ptr<LinearTransform> transform_;
  const Fjlt* fjlt_view_;  // non-null iff transform is an FJLT
  Mechanism mechanism_;
  int64_t sparsity_;  // s for SJLT kinds, 0 otherwise
};

}  // namespace dpjl

#endif  // DPJL_CORE_SKETCHER_H_
