// Streaming sketch maintenance — Theorem 3(4)'s O(s) per-update cost in a
// telemetry-style deployment, served through the Engine facade.
//
// Several edge devices observe event streams over a huge key space. Each
// maintains a running SJLT sketch (updating s = O(alpha^-1 log 1/beta)
// counters per event, never materializing the d-dimensional histogram)
// against the engine's shared public projection and periodically releases
// a private snapshot. The collector ingests the snapshots into the
// engine's index and estimates pairwise divergence between devices there,
// while tracking the cumulative privacy spend of repeated releases.
//
// At d = 2^20 and s = 16 the projection has d*s = 2^24 (row, sign) pairs,
// above the SJLT's 2^20-pair table bound, so each update recomputes its
// column's pairs on demand: memory stays O(k) per device instead of a
// 256 MiB pattern table.
//
// Build & run:  ./build/examples/streaming_updates

#include <iostream>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/core/streaming.h"
#include "src/dp/accountant.h"
#include "src/workload/generators.h"

int main() {
  using namespace dpjl;

  const int64_t d = 1 << 20;  // 1M event keys; never materialized densely
  const int64_t n_devices = 3;
  const int64_t events_per_epoch = 50000;
  const int64_t n_epochs = 2;

  EngineOptions options;
  options.sketcher.k_override = 512;
  options.sketcher.s_override = 16;
  options.sketcher.epsilon = 0.5;  // per release
  options.sketcher.projection_seed = 0xFEED;

  auto engine_result = Engine::Create(d, options);
  if (!engine_result.ok()) {
    std::cerr << engine_result.status() << "\n";
    return 1;
  }
  Engine& engine = **engine_result;
  std::cout << "construction: " << engine.sketcher().Describe() << "\n"
            << "key space d = " << d << ", sketch k = "
            << engine.sketcher().output_dim()
            << ", update touches s = 16 counters\n\n";

  // Devices 0 and 1 sample similar traffic; device 2 diverges. Every
  // device streams against the engine's sketcher (one shared projection).
  std::vector<StreamingSketcher> devices;
  std::vector<PrivacyAccountant> accountants(n_devices);
  for (int64_t dev = 0; dev < n_devices; ++dev) {
    devices.push_back(
        StreamingSketcher::Create(&engine.sketcher(), /*noise_seed=*/7000 + dev)
            .value());
  }

  Rng shared(11);
  Rng divergent(222);
  Timer update_timer;
  int64_t total_updates = 0;
  for (int64_t epoch = 0; epoch < n_epochs; ++epoch) {
    for (int64_t e = 0; e < events_per_epoch; ++e) {
      // Devices 0/1: same hot-key distribution (Zipf over a window).
      for (int64_t dev = 0; dev < 2; ++dev) {
        const int64_t key =
            static_cast<int64_t>(shared.UniformInt(1 << 16)) * (dev == 0 ? 1 : 1);
        devices[dev].Update(key, 1.0);
      }
      // Device 2: different region of the key space.
      devices[2].Update((1 << 19) + static_cast<int64_t>(
                                        divergent.UniformInt(1 << 16)),
                        1.0);
      total_updates += 3;
    }

    // Epoch release: each device publishes a snapshot into the engine's
    // index (released artifacts only — safe at an untrusted collector)
    // and accounts for it.
    std::vector<std::pair<std::string, PrivateSketch>> snapshots;
    for (int64_t dev = 0; dev < n_devices; ++dev) {
      snapshots.emplace_back(
          "e" + std::to_string(epoch) + "-dev" + std::to_string(dev),
          devices[dev].Finalize());
      accountants[dev].Record(
          PrivacyParams{snapshots.back().second.metadata().epsilon,
                        snapshots.back().second.metadata().delta});
    }
    DPJL_CHECK_OK(engine.InsertBatch(std::move(snapshots)));

    std::cout << "epoch " << epoch
              << " pairwise estimated ||hist_i - hist_j||^2:\n";
    TablePrinter table({"pair", "estimate"});
    for (int64_t i = 0; i < n_devices; ++i) {
      for (int64_t j = i + 1; j < n_devices; ++j) {
        const std::string id_i =
            "e" + std::to_string(epoch) + "-dev" + std::to_string(i);
        const std::string id_j =
            "e" + std::to_string(epoch) + "-dev" + std::to_string(j);
        table.AddRow(
            {"dev" + std::to_string(i) + " vs dev" + std::to_string(j),
             Fmt(engine.SquaredDistance(id_i, id_j).value(), 0)});
      }
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  const double us_per_update =
      update_timer.ElapsedSeconds() * 1e6 / static_cast<double>(total_updates);
  std::cout << "update cost: " << Fmt(us_per_update, 3)
            << " us/event (includes stream generation)\n";
  std::cout << "collector index: " << engine.index_size()
            << " released snapshots across " << n_epochs << " epochs\n";
  std::cout << "cumulative privacy per device after " << n_epochs
            << " releases (basic composition): eps = "
            << accountants[0].BasicComposition().epsilon << "\n";
  std::cout << "\nExpected: dev0-dev1 divergence is far below dev*-dev2 "
               "(disjoint key regions);\nupdates cost microseconds despite "
               "d = 1M; repeated releases compose linearly.\n";
  return 0;
}
