#ifndef DPJL_TESTS_TEST_UTIL_H_
#define DPJL_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/sketcher.h"
#include "src/stats/welford.h"

namespace dpjl::testing {

/// Fixed base seed: every test derives from it so the suite is fully
/// deterministic. Tolerances below are calibrated for these seeds plus
/// comfortable slack; they are not knife-edge.
inline constexpr uint64_t kTestSeed = 0xD9E57A11C0FFEE00ULL;

/// Runs `trials` evaluations of `sample(trial_index)` and accumulates the
/// results. The callback must use trial_index to derive fresh randomness.
inline OnlineMoments MonteCarlo(int64_t trials,
                                const std::function<double(int64_t)>& sample) {
  OnlineMoments m;
  for (int64_t t = 0; t < trials; ++t) m.Add(sample(t));
  return m;
}

/// True iff |a - b| <= tol * max(|a|, |b|, floor).
inline bool NearRel(double a, double b, double tol, double floor = 1e-12) {
  const double scale = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) <= tol * scale;
}

/// Lowercase hex of a byte string, two digits per byte — how golden byte
/// tests spell the bytes they pin.
inline std::string HexBytes(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

/// A small helper producing a sketcher or aborting the test setup.
inline PrivateSketcher MakeSketcherOrDie(int64_t d, const SketcherConfig& config) {
  auto result = PrivateSketcher::Create(d, config);
  DPJL_CHECK(result.ok(), "test sketcher creation failed: " + result.status().ToString());
  return std::move(result).value();
}

}  // namespace dpjl::testing

#endif  // DPJL_TESTS_TEST_UTIL_H_
