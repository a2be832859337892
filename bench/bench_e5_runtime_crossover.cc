// E5 — Section 7, eq. (5): running-time comparison across d.
//
// The paper: private FJLT beats private SJLT on *dense* inputs exactly when
//   Theta(log^2(1/beta)/alpha) < d < beta^{-O(1/alpha)},
// i.e. FJLT's O(d log d) beats SJLT's O(s d) once d is large enough for
// s > log d, and the iid transform's O(k d) loses to both. The sweep prints
// per-sketch time for dense inputs plus two one-time initialization costs:
// the iid baseline's O(dk) matrix and sensitivity scan, and the SJLT's
// column-pattern table (built only while d*s <= 2^20).

#include <cmath>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/common/timer.h"
#include "src/jl/dims.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

void Run() {
  const double alpha = 0.1;
  const double beta = 0.05;
  const int64_t k = OutputDimension(alpha, beta).value();
  const int64_t s = KaneNelsonSparsity(alpha, beta).value();

  bench::Banner(
      "E5", "Section 7, eq. (5)",
      "Dense-input sketch time across d for private SJLT (O(s d)), private\n"
      "FJLT (O(d log d)) and the iid baseline (O(k d)). alpha = " +
          Fmt(alpha, 2) + ", beta = " + Fmt(beta, 2) + " -> k = " + Fmt(k) +
          ", s = " + Fmt(s) + ".");

  TablePrinter table(
      {"d", "sjlt_us", "fjlt_us", "iid_us", "fjlt/sjlt", "init_sjlt_ms",
       "init_iid_ms"});
  Rng rng(bench::kBenchSeed);
  for (int64_t d : {int64_t{1} << 5, int64_t{1} << 7, int64_t{1} << 8,
                    int64_t{1} << 10, int64_t{1} << 12, int64_t{1} << 14,
                    int64_t{1} << 15}) {
    const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);

    const auto make = [&](TransformKind kind, NoisePlacement placement,
                          SketcherConfig::NoiseSelection noise) {
      SketcherConfig config;
      config.transform = kind;
      config.k_override = k;
      config.s_override = s;
      config.alpha = alpha;
      config.beta = beta;
      config.epsilon = 1.0;
      config.delta = 1e-6;
      config.placement = placement;
      config.noise_selection = noise;
      config.projection_seed = bench::kBenchSeed + static_cast<uint64_t>(d);
      return PrivateSketcher::Create(d, config);
    };

    Timer sjlt_init;
    auto sjlt = make(TransformKind::kSjltBlock, NoisePlacement::kOutput,
                     SketcherConfig::NoiseSelection::kLaplace);
    const double init_sjlt_ms = sjlt_init.ElapsedSeconds() * 1e3;
    // Input placement: the initialization-free FJLT variant (Lemma 8).
    auto fjlt = make(TransformKind::kFjlt, NoisePlacement::kInput,
                     SketcherConfig::NoiseSelection::kGaussian);
    DPJL_CHECK(sjlt.ok(), sjlt.status().ToString());
    DPJL_CHECK(fjlt.ok(), fjlt.status().ToString());

    uint64_t seed = 0;
    const double sjlt_us =
        bench::TimePerCall([&] { sjlt->Sketch(x, ++seed); }) * 1e6;
    const double fjlt_us =
        bench::TimePerCall([&] { fjlt->Sketch(x, ++seed); }) * 1e6;

    double iid_us = -1.0;
    double init_ms = -1.0;
    if (d <= (1 << 14)) {  // O(dk) memory/time beyond this is the point
      Timer init;
      auto iid = make(TransformKind::kGaussianIid, NoisePlacement::kOutput,
                      SketcherConfig::NoiseSelection::kGaussian);
      DPJL_CHECK(iid.ok(), iid.status().ToString());
      init_ms = init.ElapsedSeconds() * 1e3;
      iid_us = bench::TimePerCall([&] { iid->Sketch(x, ++seed); }) * 1e6;
    }
    table.AddRow({Fmt(d), Fmt(sjlt_us, 1), Fmt(fjlt_us, 1),
                  iid_us < 0 ? "(skipped)" : Fmt(iid_us, 1),
                  FmtRatio(fjlt_us / sjlt_us), Fmt(init_sjlt_ms, 2),
                  init_ms < 0 ? "(skipped)" : Fmt(init_ms, 1)});
  }
  table.Print(std::cout);
  const int64_t table_edge = (int64_t{1} << 20) / s;
  std::cout
      << "\nEq. (5) reading: the FJLT wins on dense inputs exactly when\n"
         "Theta(log^2(1/beta)/alpha) < d < beta^{-O(1/alpha)}. At alpha = 0.1\n"
         "the lower edge is ~" +
             Fmt(std::log(2.0 / beta) * std::log(2.0 / beta) / alpha, 0) +
             " and the upper edge is astronomically large, so the\n"
             "FJLT is ahead on every dense row. How far ahead depends on the\n"
             "SJLT's column patterns. Up to d = " +
             Fmt(table_edge) +
             " (d*s <= 2^20) Create tabulates them\n"
             "(init_sjlt_ms), an apply is s multiply-adds per coordinate, and\n"
             "the FJLT's margin is a small constant factor. Above that bound\n"
             "every sketch recomputes each column's 2s hash evaluations and\n"
             "the margin grows to about two orders of magnitude. The iid\n"
             "column pays the O(dk) init and trails the SJLT wherever the\n"
             "table is built.\n";

  std::cout << "\nSparse inputs (||x||_0 = 128 fixed; the SJLT's home turf — "
               "O(s nnz) vs Omega(d log d)):\n";
  TablePrinter sparse_table({"d", "sjlt_us", "fjlt_us", "fjlt/sjlt"});
  for (int64_t d : {int64_t{1} << 10, int64_t{1} << 13, int64_t{1} << 16}) {
    const SparseVector x = RandomSparseVector(d, 128, 1.0, &rng);
    SketcherConfig config;
    config.k_override = k;
    config.s_override = s;
    config.beta = beta;
    config.epsilon = 1.0;
    config.delta = 1e-6;
    config.projection_seed = bench::kBenchSeed + static_cast<uint64_t>(d);
    config.transform = TransformKind::kSjltBlock;
    config.noise_selection = SketcherConfig::NoiseSelection::kLaplace;
    auto sjlt = PrivateSketcher::Create(d, config);
    config.transform = TransformKind::kFjlt;
    config.placement = NoisePlacement::kInput;
    config.noise_selection = SketcherConfig::NoiseSelection::kGaussian;
    auto fjlt = PrivateSketcher::Create(d, config);
    DPJL_CHECK(sjlt.ok() && fjlt.ok(), "sketcher creation failed");
    uint64_t seed = 0;
    const double sjlt_us =
        bench::TimePerCall([&] { sjlt->SketchSparse(x, ++seed); }) * 1e6;
    const double fjlt_us =
        bench::TimePerCall([&] { fjlt->SketchSparse(x, ++seed); }) * 1e6;
    sparse_table.AddRow({Fmt(d), Fmt(sjlt_us, 1), Fmt(fjlt_us, 1),
                         FmtRatio(fjlt_us / sjlt_us)});
  }
  sparse_table.Print(std::cout);
  std::cout << "\nExpected: sparse SJLT time is flat in d on each side of\n"
               "the table bound (d = " +
                   Fmt(table_edge) +
                   ") while the FJLT grows with d log d — the\n"
                   "update-time separation behind Theorem 3's O(s ||x||_0 + k)\n"
                   "claim.\n";
}

}  // namespace
}  // namespace dpjl

int main() {
  dpjl::Run();
  return 0;
}
