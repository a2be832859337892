#include "src/jl/dims.h"

#include <algorithm>
#include <cmath>

namespace dpjl {

Status ValidateJlParams(double alpha, double beta) {
  if (!(alpha > 0.0 && alpha < 0.5)) {
    return Status::InvalidArgument("alpha must lie in (0, 1/2)");
  }
  if (!(beta > 0.0 && beta < 0.5)) {
    return Status::InvalidArgument("beta must lie in (0, 1/2)");
  }
  return Status::OK();
}

Result<int64_t> OutputDimension(double alpha, double beta) {
  DPJL_RETURN_IF_ERROR(ValidateJlParams(alpha, beta));
  const double k = 4.0 * std::log(2.0 / beta) / (alpha * alpha);
  return static_cast<int64_t>(std::ceil(k));
}

Result<int64_t> FlatteningOutputDimension(int64_t n, double alpha,
                                          double beta) {
  if (n < 2) {
    return Status::InvalidArgument("flattening needs n >= 2 vectors");
  }
  DPJL_RETURN_IF_ERROR(ValidateJlParams(alpha, beta));
  const double pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
  return OutputDimension(alpha, beta / pairs);
}

Result<int64_t> KaneNelsonSparsity(double alpha, double beta) {
  DPJL_RETURN_IF_ERROR(ValidateJlParams(alpha, beta));
  DPJL_ASSIGN_OR_RETURN(int64_t k, OutputDimension(alpha, beta));
  const double s = 2.0 * std::log(2.0 / beta) / alpha;
  return std::min<int64_t>(static_cast<int64_t>(std::ceil(s)), k);
}

int64_t RoundUpToMultiple(int64_t k, int64_t s) {
  if (s <= 0) return k;
  const int64_t rem = k % s;
  return rem == 0 ? k : k + (s - rem);
}

Result<double> FjltDensity(double beta, int64_t d) {
  if (!(beta > 0.0 && beta < 0.5)) {
    return Status::InvalidArgument("beta must lie in (0, 1/2)");
  }
  if (d <= 0) {
    return Status::InvalidArgument("d must be positive");
  }
  const double log_term = std::log(2.0 / beta);
  const double q = log_term * log_term / static_cast<double>(d);
  const double floor_q = 9.0 / static_cast<double>(d);
  return std::min(1.0, std::max(q, floor_q));
}

Result<int> HashIndependence(double beta) {
  if (!(beta > 0.0 && beta < 0.5)) {
    return Status::InvalidArgument("beta must lie in (0, 1/2)");
  }
  const int wise = static_cast<int>(std::ceil(std::log2(2.0 / beta)));
  return std::max(8, wise);
}

}  // namespace dpjl
