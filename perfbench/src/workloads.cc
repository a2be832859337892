// The three benchmark workloads. Every workload:
//   1. generates its inputs from --seed (MakeClusters vectors at d=1024,
//      ids doc<N>, held-out probe vectors) and the exact answers on the raw
//      vectors — the benchmark's own work, never timed;
//   2. sets up the program kSetupRepeats times, timing each, and serves
//      from the last set-up;
//   3. runs a closed-loop load phase through the public APIs, timing each
//      request from the call until the result is in hand, and checks every
//      answer against a reference computed by direct SketchIndex calls;
//   4. with --trace 1, splits the load phase into an untraced and a traced
//      half and adds the layer probes, all recorded as spans.
// The workload-specific comments say why each workload exists; NOTES.md
// records the predictions the numbers are meant to test.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bench.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/estimators.h"
#include "src/core/sketch_index.h"
#include "src/core/sketcher.h"
#include "src/host.h"
#include "src/jl/make_transform.h"
#include "src/linalg/kernels.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/router.h"
#include "src/net/server.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"
#include "src/trace.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using dpjl::Engine;
using dpjl::PrivateSketch;
using dpjl::SketchIndex;
using Neighbors = std::vector<SketchIndex::Neighbor>;

constexpr int64_t kDim = 1024;
constexpr int64_t kTopN = 10;
constexpr int64_t kBatchProbes = 8;
constexpr int64_t kIngestBatch = 64;
constexpr int kSetupRepeats = 5;
constexpr int kPartitions = 4;
// Cluster geometry. Clusters hold ~kClusterSize stored vectors, spaced so
// far apart (squared distance ~2d * 31) that the Laplace noise of an
// estimate (std ~5e3 at k=370) never mixes clusters, while the members of
// one cluster (squared distance ~2d) are closer together than that noise.
// The private top-10 therefore finds the probe's cluster but not which of
// its ~16 members are exactly nearest: nn_recall10 sits near 0.6, away
// from both 0 and 1, and moves if either the noise or the scan changes.
constexpr int64_t kClusterSize = 16;
constexpr double kCenterScale = 5.5;
constexpr double kSpread = 1.0;
// The range radius is the pooled 1% quantile of estimated distances from
// the first kRadiusProbes probes, so a range query admits ~1% of the corpus.
constexpr double kRangeShare = 0.01;
constexpr int64_t kRadiusProbes = 32;
constexpr double kWarmupSeconds = 0.25;
// CPUs each workload is confined to once its inputs exist. On a shared VM
// a thread woken on an idle vCPU waits until the host runs that vCPU: from
// tens of microseconds up to milliseconds in the host's busy spells, which
// last minutes. Unpinned, the hand-off-heavy latencies (a routed NN crosses
// ~16 threads) swung 2x between runs in such spells while single-thread
// work moved ~10%. On as few CPUs as its closed loop keeps busy, a workload
// seldom wakes an idle vCPU.
constexpr int kQueryScanCpus = 2;
constexpr int kIngestMixCpus = 2;
constexpr int kRoutedCpus = 1;

// Derived seed streams: each input family draws from its own stream.
enum SeedStream : uint64_t {
  kDataStream = 1,
  kCorpusNoiseStream = 2,
  kProbeNoiseStream = 3,
  kPairStream = 4,
  kMiscStream = 5,
  kClientStream = 100,
};

struct Sizes {
  int64_t corpus = 0;         // stored before serving starts
  int64_t stream = 0;         // ingest_mix: appended by the writer
  int64_t probes = 0;         // held-out query vectors
  int64_t recall_probes = 0;  // probes scored against the exact top-10
  int64_t pairs = 0;          // stored id pairs (est requests, est_rel_rmse)
};

std::string DocId(int64_t position) { return "doc" + std::to_string(position); }

int64_t DocPosition(const std::string& id) { return std::stoll(id.substr(3)); }

dpjl::SketcherConfig SketcherFor() {
  // The CLI's default sketcher: block SJLT, alpha=0.2, beta=0.05 (k=370,
  // s=37), pure eps=1 DP -> Laplace noise, projection seed 1.
  dpjl::SketcherConfig config;
  config.transform = dpjl::TransformKind::kSjltBlock;
  config.alpha = 0.2;
  config.beta = 0.05;
  config.epsilon = 1.0;
  config.delta = 0.0;
  config.projection_seed = 1;
  return config;
}

dpjl::EngineOptions EngineOptionsFor(int threads, int serving) {
  dpjl::EngineOptions options;
  options.sketcher = SketcherFor();
  options.threads = threads;
  options.serving_threads = serving;
  return options;
}

uint64_t ProbeNoiseSeed(uint64_t seed, int64_t probe) {
  return dpjl::DeriveSeed(dpjl::DeriveSeed(seed, kProbeNoiseStream),
                          static_cast<uint64_t>(probe));
}

bool SameDouble(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool SameNeighbors(const Neighbors& a, const Neighbors& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !SameDouble(a[i].squared_distance, b[i].squared_distance)) {
      return false;
    }
  }
  return true;
}

double SquaredL2(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

template <typename F>
auto TimedUs(TraceBuffer* buffer, const char* name, double* us, F&& call) {
  Span span(buffer, name);
  const int64_t start = NowNs();
  auto result = call();
  *us = static_cast<double>(NowNs() - start) / 1e3;
  return result;
}

// ---------------------------------------------------------------------------
// Inputs and exact answers (benchmark work, untimed).

struct Inputs {
  std::vector<std::vector<double>> stored;  // position i is stored as doc<i>
  std::vector<int64_t> labels;              // cluster of each stored vector
  std::vector<std::vector<double>> probes;
};

struct Truth {
  std::vector<std::vector<int64_t>> top;  // exact top-10 positions per probe
  std::vector<std::pair<int64_t, int64_t>> pairs;
  std::vector<double> pair_sq;  // exact squared distance per pair
};

/// Generated inputs, exact answers and the probe sketches every workload
/// needs, plus the run's settings.
struct Common {
  Args args;
  Tracer* tracer = nullptr;
  Report* report = nullptr;
  TraceBuffer* main = nullptr;  // the main thread's span buffer
  Sizes sizes;
  Inputs inputs;
  Truth truth;
  std::vector<PrivateSketch> probe_sketches;  // sync PrivateSketcher releases
  std::vector<std::string> probe_bytes;       // their serialized form
};

Inputs Generate(uint64_t seed, const Sizes& sizes) {
  dpjl::Rng rng(dpjl::DeriveSeed(seed, kDataStream));
  const int64_t stored = sizes.corpus + sizes.stream;
  const int64_t clusters = std::max<int64_t>(1, stored / kClusterSize);
  dpjl::ClusteredData data = dpjl::MakeClusters(stored + sizes.probes, kDim, clusters,
                                                kCenterScale, kSpread, &rng);
  Inputs inputs;
  inputs.probes.assign(std::make_move_iterator(data.points.begin() + stored),
                       std::make_move_iterator(data.points.end()));
  data.points.resize(static_cast<size_t>(stored));
  data.labels.resize(static_cast<size_t>(stored));
  inputs.stored = std::move(data.points);
  inputs.labels = std::move(data.labels);
  return inputs;
}

Truth ComputeTruth(const Inputs& inputs, const Sizes& sizes, uint64_t seed) {
  Truth truth;
  const int64_t n = static_cast<int64_t>(inputs.stored.size());
  truth.top.resize(static_cast<size_t>(sizes.recall_probes));
  dpjl::ThreadPool pool(std::min(4, dpjl::ThreadPool::DefaultThreadCount()));
  pool.ParallelFor(0, sizes.recall_probes, 1, [&](int64_t begin, int64_t end) {
    std::vector<std::pair<double, int64_t>> distances(static_cast<size_t>(n));
    for (int64_t p = begin; p < end; ++p) {
      for (int64_t i = 0; i < n; ++i) {
        distances[static_cast<size_t>(i)] = {
            SquaredL2(inputs.probes[static_cast<size_t>(p)],
                      inputs.stored[static_cast<size_t>(i)]),
            i};
      }
      std::partial_sort(distances.begin(), distances.begin() + kTopN, distances.end());
      for (int64_t r = 0; r < kTopN; ++r) {
        truth.top[static_cast<size_t>(p)].push_back(distances[static_cast<size_t>(r)].second);
      }
    }
  });
  dpjl::Rng rng(dpjl::DeriveSeed(seed, kPairStream));
  // Pairs are drawn uniformly among vectors of different clusters: a
  // same-cluster pair's true distance is below the noise floor, and the
  // few such pairs a uniform draw would include would dominate the mean
  // squared relative error and make it swing from seed to seed.
  while (static_cast<int64_t>(truth.pairs.size()) < sizes.pairs) {
    const int64_t a = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int64_t b = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (inputs.labels[static_cast<size_t>(a)] == inputs.labels[static_cast<size_t>(b)]) continue;
    truth.pairs.emplace_back(a, b);
    truth.pair_sq.push_back(SquaredL2(inputs.stored[static_cast<size_t>(a)],
                                      inputs.stored[static_cast<size_t>(b)]));
  }
  return truth;
}

/// Generates everything and releases the probe sketches through the sync
/// PrivateSketcher — the reference bytes the async release is checked
/// against, and the `sketcher.sketch` spans of a traced run. Then confines
/// the program to `cpus` CPUs for the rest of the run.
bool Prepare(const Args& args, Tracer* tracer, Report* report, const Sizes& sizes, int cpus,
             Common* c) {
  c->args = args;
  c->tracer = tracer;
  c->report = report;
  c->main = tracer->NewBuffer();
  c->sizes = sizes;
  c->inputs = Generate(args.seed, sizes);
  c->truth = ComputeTruth(c->inputs, sizes, args.seed);
  dpjl::Result<dpjl::PrivateSketcher> sketcher =
      dpjl::PrivateSketcher::Create(kDim, SketcherFor());
  if (!sketcher.ok()) {
    report->NonOk("PrivateSketcher::Create: " + sketcher.status().ToString());
    return false;
  }
  for (int64_t p = 0; p < sizes.probes; ++p) {
    Span span(c->main, "sketcher.sketch");
    c->probe_sketches.push_back(
        sketcher->Sketch(c->inputs.probes[static_cast<size_t>(p)], ProbeNoiseSeed(args.seed, p)));
  }
  for (const PrivateSketch& sketch : c->probe_sketches) c->probe_bytes.push_back(sketch.Serialize());
  report->context.emplace_back("shape", "d=" + std::to_string(kDim) + " cluster_size=" +
                                            std::to_string(kClusterSize) + " stored=" +
                                            std::to_string(c->inputs.stored.size()) +
                                            " probes=" + std::to_string(sizes.probes));
  // Pinned only now, so that the exact answers above use every CPU.
  report->context.emplace_back("cpus", PinToCpus(cpus));
  return true;
}

// ---------------------------------------------------------------------------
// Ingestion: SketchBatch(64) + InsertBatch, the write path of every set-up
// and of the ingest_mix writer.

struct IngestStats {
  int64_t vectors = 0;
  double seconds = 0.0;
};

bool Ingest(Engine* engine, const Common& c, int64_t begin, int64_t end,
            const char* sketch_span, const char* insert_span, TraceBuffer* buffer,
            IngestStats* stats) {
  const uint64_t noise_root = dpjl::DeriveSeed(c.args.seed, kCorpusNoiseStream);
  const int64_t start = NowNs();
  for (int64_t b = begin; b < end; b += kIngestBatch) {
    const int64_t e = std::min(end, b + kIngestBatch);
    const std::vector<std::vector<double>> batch(c.inputs.stored.begin() + b,
                                                 c.inputs.stored.begin() + e);
    dpjl::Result<std::vector<PrivateSketch>> sketches = [&] {
      Span span(buffer, sketch_span);
      return engine->SketchBatch(batch, dpjl::DeriveSeed(noise_root, static_cast<uint64_t>(b)));
    }();
    if (!sketches.ok()) {
      c.report->NonOk("SketchBatch: " + sketches.status().ToString());
      return false;
    }
    std::vector<std::pair<std::string, PrivateSketch>> items;
    items.reserve(static_cast<size_t>(e - b));
    for (int64_t i = b; i < e; ++i) {
      items.emplace_back(DocId(i), std::move((*sketches)[static_cast<size_t>(i - b)]));
    }
    const dpjl::Status inserted = [&] {
      Span span(buffer, insert_span);
      return engine->InsertBatch(std::move(items));
    }();
    if (!inserted.ok()) {
      c.report->NonOk("InsertBatch: " + inserted.ToString());
      return false;
    }
  }
  stats->vectors += end - begin;
  stats->seconds += static_cast<double>(NowNs() - start) / 1e9;
  return true;
}

/// Runs `setup_once` kSetupRepeats times, records setup_s (median) and
/// stores the median corpus ingest rate in `ingest_vps` when non-null.
/// `after_rep`, when set, runs untimed after each repetition.
bool RepeatSetup(Common* c, const std::function<bool(IngestStats*)>& setup_once,
                 const std::function<void(int rep)>& after_rep, double* ingest_vps) {
  Samples seconds;
  Samples rates;
  for (int r = 0; r < kSetupRepeats; ++r) {
    IngestStats ingest;
    const int64_t start = NowNs();
    bool ok = false;
    {
      Span span(c->main, "setup");
      ok = setup_once(&ingest);
    }
    if (!ok) return false;
    seconds.Add(static_cast<double>(NowNs() - start) / 1e9);
    rates.Add(static_cast<double>(ingest.vectors) / ingest.seconds);
    if (after_rep) after_rep(r);
  }
  std::string reps;
  for (const double v : seconds.values()) reps += (reps.empty() ? "" : " ") + std::to_string(v);
  c->report->context.emplace_back("setup_reps_s", reps);
  c->report->AddQuantile("setup_s", seconds, 0.5, "s");
  if (ingest_vps != nullptr) *ingest_vps = rates.Median();
  return true;
}

/// Releases probes [begin, end) through the async one-vector path and
/// checks the bytes against the sync sketcher's release of the same
/// (vector, seed). Workloads release in several bursts spread over the run
/// (after each set-up and after the load phase): on a shared host the
/// one-vector latency drifts by up to ~25% between one-second windows, and
/// a median over many windows drifts far less.
void ReleaseProbes(Engine* engine, Common* c, int64_t begin, int64_t end, Samples* sketch_us) {
  for (int64_t p = begin; p < end; ++p) {
    ++c->report->attempted;
    double us = 0.0;
    const dpjl::Result<PrivateSketch> released = TimedUs(c->main, "e2e.sketch", &us, [&] {
      return engine
          ->SubmitSketch(c->inputs.probes[static_cast<size_t>(p)], ProbeNoiseSeed(c->args.seed, p))
          .Get();
    });
    if (!released.ok()) {
      c->report->NonOk("SubmitSketch: " + released.status().ToString());
      continue;
    }
    sketch_us->Add(us);
    if (released->Serialize() != c->probe_bytes[static_cast<size_t>(p)]) {
      c->report->Wrong("SubmitSketch of probe " + std::to_string(p) +
                       " differs from PrivateSketcher::Sketch");
    }
  }
}

/// The rep-th of kSetupRepeats equal slices of the probes, released after
/// set-up repetition `rep`.
void ReleaseSlice(Engine* engine, Common* c, int rep, Samples* sketch_us) {
  const int64_t n = c->sizes.probes;
  ReleaseProbes(engine, c, n * rep / kSetupRepeats, n * (rep + 1) / kSetupRepeats, sketch_us);
}

/// Drops the raw vectors (the exact answers are already computed) and
/// reports the resident set of what is left: the serving program.
void DropInputsAndReportRss(Common* c) {
  std::vector<std::vector<double>>().swap(c->inputs.stored);
  ReleaseFreeMemory();
  c->report->Add("rss_mb", ResidentMb(), "MB", 1);
}

// ---------------------------------------------------------------------------
// Reference answers from direct SketchIndex calls.

struct Reference {
  SketchIndex index;
  double radius_sq = 0.0;
  std::vector<Neighbors> nn;     // per probe
  std::vector<Neighbors> range;  // per probe (empty when not needed)
  std::vector<double> pair_est;  // per truth pair
  double load_mbps = 0.0;
  double mean_range_hits = 0.0;
};

bool BuildReference(const std::string& snapshot, bool with_range, Common* c, Reference* ref) {
  const int64_t start = NowNs();
  dpjl::Result<SketchIndex> index = [&] {
    Span span(c->main, "snapshot.deserialize");
    return SketchIndex::Deserialize(snapshot);
  }();
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (!index.ok()) {
    c->report->NonOk("SketchIndex::Deserialize: " + index.status().ToString());
    return false;
  }
  ref->index = std::move(index).value();
  ref->load_mbps = static_cast<double>(snapshot.size()) / 1e6 / seconds;

  Samples pooled;
  const int64_t radius_probes = std::min(kRadiusProbes, c->sizes.probes);
  for (int64_t p = 0; p < radius_probes; ++p) {
    dpjl::Result<Neighbors> all = ref->index.RangeQuery(
        c->probe_sketches[static_cast<size_t>(p)], std::numeric_limits<double>::max());
    if (!all.ok()) {
      c->report->NonOk("reference RangeQuery: " + all.status().ToString());
      return false;
    }
    for (const auto& neighbor : *all) pooled.Add(neighbor.squared_distance);
  }
  // Within-cluster estimates can be negative (noise exceeds distance); a
  // radius is never, so tiny corpora whose 1% quantile falls inside a
  // cluster get radius 0.
  ref->radius_sq = std::max(0.0, pooled.Quantile(kRangeShare));

  Samples hits;
  for (int64_t p = 0; p < c->sizes.probes; ++p) {
    const PrivateSketch& query = c->probe_sketches[static_cast<size_t>(p)];
    dpjl::Result<Neighbors> nn = [&] {
      Span span(c->main, "index.nn");
      return ref->index.NearestNeighbors(query, kTopN);
    }();
    if (!nn.ok()) {
      c->report->NonOk("reference NearestNeighbors: " + nn.status().ToString());
      return false;
    }
    ref->nn.push_back(std::move(nn).value());
    if (!with_range) continue;
    dpjl::Result<Neighbors> range = [&] {
      Span span(c->main, "index.range");
      return ref->index.RangeQuery(query, ref->radius_sq);
    }();
    if (!range.ok()) {
      c->report->NonOk("reference RangeQuery: " + range.status().ToString());
      return false;
    }
    hits.Add(static_cast<double>(range->size()));
    ref->range.push_back(std::move(range).value());
  }
  ref->mean_range_hits = hits.Mean();
  for (const auto& [a, b] : c->truth.pairs) {
    dpjl::Result<double> estimate = [&] {
      Span span(c->main, "index.est");
      return ref->index.SquaredDistance(DocId(a), DocId(b));
    }();
    if (!estimate.ok()) {
      c->report->NonOk("reference SquaredDistance: " + estimate.status().ToString());
      return false;
    }
    ref->pair_est.push_back(*estimate);
  }
  return true;
}

/// nn_recall10 (private top-10 vs exact top-10 over the recall probes) and
/// est_rel_rmse (the paper's variance claim, over the fixed stored pairs).
void ReportQuality(const Common& c, const Reference& ref) {
  Samples overlap;
  for (int64_t p = 0; p < c.sizes.recall_probes; ++p) {
    const std::vector<int64_t>& exact = c.truth.top[static_cast<size_t>(p)];
    int64_t found = 0;
    for (const auto& neighbor : ref.nn[static_cast<size_t>(p)]) {
      if (std::find(exact.begin(), exact.end(), DocPosition(neighbor.id)) != exact.end()) ++found;
    }
    overlap.Add(static_cast<double>(found) / static_cast<double>(kTopN));
  }
  c.report->Add("nn_recall10", overlap.Mean(), "fraction", overlap.size());
  double sum = 0.0;
  for (size_t k = 0; k < ref.pair_est.size(); ++k) {
    const double rel = (ref.pair_est[k] - c.truth.pair_sq[k]) / c.truth.pair_sq[k];
    sum += rel * rel;
  }
  c.report->Add("est_rel_rmse", std::sqrt(sum / static_cast<double>(ref.pair_est.size())),
                "fraction", static_cast<int64_t>(ref.pair_est.size()));
}

// ---------------------------------------------------------------------------
// Closed-loop request loop shared by query_scan and routed.

enum Op { kNn = 0, kRange, kBatch8, kEst, kNumOps };
const char* const kOpMetric[kNumOps] = {"nn", "range", "batch8", "est"};
const char* const kRequestSpan[kNumOps] = {"request.nn", "request.range", "request.batch8",
                                           "request.est"};
const char* const kE2eSpan[kNumOps] = {"e2e.nn", "e2e.range", "e2e.batch8", "e2e.est"};

/// The read mix: 60% NN, 15% range, 15% batch8, 10% estimate.
Op DrawOp(dpjl::Rng* rng) {
  const uint64_t u = rng->UniformInt(100);
  if (u < 60) return kNn;
  if (u < 75) return kRange;
  if (u < 90) return kBatch8;
  return kEst;
}

/// One client's counts; merged after the clients join.
struct Tally {
  Samples latency_us[kNumOps];
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t non_ok = 0;
  int64_t wrong = 0;
  int64_t lane_depth_max = 0;
  std::vector<std::string> problems;

  void NonOk(const std::string& what) {
    ++non_ok;
    if (problems.size() < 4) problems.push_back("non-OK status: " + what);
  }
  void Wrong(const std::string& what) {
    ++wrong;
    if (problems.size() < 4) problems.push_back("wrong answer: " + what);
  }
  void Merge(const Tally& other) {
    for (int op = 0; op < kNumOps; ++op) latency_us[op].Append(other.latency_us[op]);
    attempted += other.attempted;
    ok += other.ok;
    non_ok += other.non_ok;
    wrong += other.wrong;
    lane_depth_max = std::max(lane_depth_max, other.lane_depth_max);
    problems.insert(problems.end(), other.problems.begin(), other.problems.end());
  }
};

struct Phase {
  Tally tally;
  double seconds = 0.0;
};

using RequestFn = std::function<void(Op op, dpjl::Rng* rng, TraceBuffer* buffer, Tally* tally)>;

/// `clients` threads each issue requests back to back until `seconds` have
/// passed. With a tracer, each thread records into its own buffer.
Phase RunClosedLoop(const Common& c, int clients, double seconds, uint64_t stream, Tracer* tracer,
                    const RequestFn& request) {
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      dpjl::Rng rng(dpjl::DeriveSeed(c.args.seed, stream + static_cast<uint64_t>(i)));
      TraceBuffer* buffer = tracer != nullptr ? tracer->NewBuffer() : nullptr;
      Tally& tally = tallies[static_cast<size_t>(i)];
      while (NowNs() < deadline) request(DrawOp(&rng), &rng, buffer, &tally);
    });
  }
  for (std::thread& thread : threads) thread.join();
  Phase phase;
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (const Tally& tally : tallies) phase.tally.Merge(tally);
  return phase;
}

void Account(const Tally& tally, Report* report) {
  report->attempted += tally.attempted;
  report->non_ok += tally.non_ok;
  report->wrong += tally.wrong;
  for (const std::string& problem : tally.problems) report->Problem(problem);
}

void ReportReadPhase(const Phase& phase, Report* report) {
  const Tally& t = phase.tally;
  report->AddQuantile("nn_p50_us", t.latency_us[kNn], 0.5, "us");
  report->AddQuantile("nn_p99_us", t.latency_us[kNn], 0.99, "us");
  for (int op = kRange; op < kNumOps; ++op) {
    report->AddQuantile(std::string(kOpMetric[op]) + "_p50_us", t.latency_us[op], 0.5, "us");
  }
  report->Add("query_qps", static_cast<double>(t.ok) / phase.seconds, "req/s", t.ok);
}

/// Checks one answer and records its latency.
void Record(Op op, double us, bool same, const std::string& what, Tally* tally) {
  if (!same) {
    tally->Wrong(what);
    return;
  }
  ++tally->ok;
  tally->latency_us[op].Add(us);
}

std::vector<PrivateSketch> BatchAt(const Common& c, int64_t first) {
  std::vector<PrivateSketch> batch;
  for (int64_t j = 0; j < kBatchProbes; ++j) {
    batch.push_back(c.probe_sketches[static_cast<size_t>((first + j) % c.sizes.probes)]);
  }
  return batch;
}

bool SameBatch(const Common& c, const Reference& ref, int64_t first,
               const std::vector<Neighbors>& answer) {
  if (static_cast<int64_t>(answer.size()) != kBatchProbes) return false;
  for (int64_t j = 0; j < kBatchProbes; ++j) {
    if (!SameNeighbors(answer[static_cast<size_t>(j)],
                       ref.nn[static_cast<size_t>((first + j) % c.sizes.probes)])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer numbers from the spans of a traced run.

/// Per-request difference between two spans' durations (e.g. async Submit
/// -> Get minus the sync call on the same probe): the time the request
/// spent waiting rather than computing.
Samples SpanDifferenceUs(const std::vector<SpanRecord>& records, const char* minuend,
                         const char* subtrahend) {
  std::unordered_map<uint64_t, std::pair<double, double>> by_request;
  for (const SpanRecord& record : records) {
    if (record.request == 0) continue;
    if (std::strcmp(record.name, minuend) == 0) by_request[record.request].first = record.DurationUs();
    if (std::strcmp(record.name, subtrahend) == 0) {
      by_request[record.request].second = record.DurationUs();
    }
  }
  Samples diff;
  for (const auto& [request, pair] : by_request) {
    if (pair.first > 0.0 && pair.second > 0.0) diff.Add(pair.first - pair.second);
  }
  return diff;
}

Samples SelfSamples(const std::map<std::string, std::vector<double>>& self, const std::string& name) {
  Samples samples;
  const auto it = self.find(name);
  if (it != self.end()) {
    for (const double v : it->second) samples.Add(v);
  }
  return samples;
}

/// Standalone layer probes through public functions, on this run's data:
/// jl transform, dp noise, the selected distance kernel and the frame
/// codecs. Recorded as root spans on the main thread.
void RunLayerProbes(Common* c, const Reference& ref) {
  TraceBuffer* buffer = c->main;
  const int64_t count = std::min<int64_t>(64, c->sizes.probes) / kBatchProbes * kBatchProbes;
  const dpjl::SketcherConfig config = SketcherFor();
  dpjl::Result<std::unique_ptr<dpjl::LinearTransform>> transform = dpjl::MakeTransform(
      config.transform, kDim, config.alpha, config.beta, config.projection_seed);
  if (!transform.ok()) {
    c->report->NonOk("MakeTransform: " + transform.status().ToString());
    return;
  }
  std::vector<double> sink;
  for (int64_t p = 0; p < count; ++p) {
    Span span(buffer, "jl.apply");
    sink = (*transform)->Apply(c->inputs.probes[static_cast<size_t>(p)]);
  }
  std::vector<std::vector<double>> outputs(kBatchProbes);
  std::vector<double> workspace;
  for (int64_t p = 0; p + kBatchProbes <= count; p += kBatchProbes) {
    Span span(buffer, "jl.apply_block8");
    (*transform)->ApplyBlock(&c->inputs.probes[static_cast<size_t>(p)], kBatchProbes,
                             outputs.data(), &workspace);
  }

  dpjl::Result<dpjl::PrivateSketcher> sketcher = dpjl::PrivateSketcher::Create(kDim, config);
  if (!sketcher.ok()) {
    c->report->NonOk("PrivateSketcher::Create: " + sketcher.status().ToString());
    return;
  }
  dpjl::Rng rng(dpjl::DeriveSeed(c->args.seed, kMiscStream));
  std::vector<double> noise(static_cast<size_t>(sketcher->output_dim()), 0.0);
  for (int i = 0; i < 256; ++i) {
    Span span(buffer, "dp.noise");
    sketcher->mechanism().AddNoise(&noise, &rng);
  }

  // The selected multi-candidate kernel over an arena-sized lane-interleaved
  // buffer (one pass = one corpus scan's kernel work).
  const int64_t k = sketcher->output_dim();
  const int64_t candidates = ref.index.size();
  const int64_t blocks = (candidates + kBatchProbes - 1) / kBatchProbes;
  std::vector<double> arena(static_cast<size_t>(blocks * k * kBatchProbes));
  for (size_t i = 0; i < arena.size(); ++i) arena[i] = static_cast<double>(i % 97) * 0.25;
  const std::vector<double>& query = c->probe_sketches[0].values();
  double out[kBatchProbes];
  double checksum = 0.0;
  const dpjl::KernelOps& kernels = dpjl::Kernels();
  for (int pass = 0; pass < 5; ++pass) {
    Span span(buffer, "kernels.scan_pass");
    for (int64_t b = 0; b < blocks; ++b) {
      kernels.squared_distance_block(query.data(), &arena[static_cast<size_t>(b * k * kBatchProbes)],
                                     k, kBatchProbes, out);
      checksum += out[0];
    }
  }
  if (!std::isfinite(checksum)) c->report->Problem("kernel probe produced a non-finite sum");

  // Frame codecs for one NN request and its response, checked round trip.
  for (int64_t p = 0; p < count; ++p) {
    const PrivateSketch& sketch = c->probe_sketches[static_cast<size_t>(p)];
    const Neighbors& answer = ref.nn[static_cast<size_t>(p)];
    std::string request_frame;
    std::string response_frame;
    {
      Span span(buffer, "frame.encode");
      dpjl::net::FrameHeader header;
      header.type = dpjl::net::MessageType::kNearestNeighborsRequest;
      request_frame = dpjl::net::EncodeFrame(
          header, dpjl::net::EncodeNearestNeighborsRequest({sketch.Serialize(), kTopN}));
      header.type = dpjl::net::MessageType::kNeighborsResponse;
      response_frame = dpjl::net::EncodeFrame(header, dpjl::net::EncodeNeighbors(answer));
    }
    bool same = false;
    {
      Span span(buffer, "frame.decode");
      dpjl::Result<dpjl::net::Frame> req = dpjl::net::DecodeFrame(request_frame);
      dpjl::Result<dpjl::net::Frame> resp = dpjl::net::DecodeFrame(response_frame);
      if (req.ok() && resp.ok()) {
        dpjl::Result<dpjl::net::NearestNeighborsRequest> decoded =
            dpjl::net::DecodeNearestNeighborsRequest(req->payload);
        dpjl::Result<Neighbors> neighbors = dpjl::net::DecodeNeighbors(resp->payload);
        if (decoded.ok() && neighbors.ok()) {
          dpjl::Result<PrivateSketch> back = PrivateSketch::Deserialize(decoded->sketch);
          same = back.ok() && back->Serialize() == c->probe_bytes[static_cast<size_t>(p)] &&
                 SameNeighbors(*neighbors, answer);
        }
      }
    }
    ++c->report->attempted;
    if (!same) c->report->Wrong("frame codec round trip of probe " + std::to_string(p));
    if (p == 0) {
      c->report->Add("frame.nn_req_bytes", static_cast<double>(request_frame.size()), "bytes", 1);
      c->report->Add("frame.nn_resp_bytes", static_cast<double>(response_frame.size()), "bytes", 1);
    }
  }
}

/// The per-layer metrics every workload's traced run reports. `async_nn`
/// names the span timing an async engine NN whose sync twin is
/// `engine.sync_nn` on the same probe.
void ReportCommonLayers(Common* c, const Reference& ref, const char* async_nn, double untraced_nn_p50) {
  RunLayerProbes(c, ref);
  const std::vector<SpanRecord> records = c->tracer->Records();
  const auto self = c->tracer->SelfTimesUs();
  Report* r = c->report;
  r->AddQuantile("engine.queue_wait_us", SpanDifferenceUs(records, async_nn, "engine.sync_nn"), 0.5,
                 "us");
  const Samples index_nn = SelfSamples(self, "index.nn");
  r->AddQuantile("index.nn_us", index_nn, 0.5, "us");
  r->AddQuantile("index.range_us", SelfSamples(self, "index.range"), 0.5, "us");
  r->Add("index.range_hits", ref.mean_range_hits, "count", static_cast<int64_t>(ref.range.size()));
  const double k = static_cast<double>(c->probe_sketches[0].values().size());
  const double arena_bytes = static_cast<double>(ref.index.size()) * k * sizeof(double);
  const double scan_gbps = arena_bytes / (index_nn.Median() * 1e-6) / 1e9;
  const double stream_gbps = MeasureStreamGbps(c->args.quick);
  r->Add("index.scan_gbps", scan_gbps, "GB/s", index_nn.size());
  r->Add("index.scan_bw_frac", scan_gbps / stream_gbps, "fraction", index_nn.size());
  const Samples pass = SelfSamples(self, "kernels.scan_pass");
  r->Add("kernels.dist_block_ns", pass.Median() * 1e3 / static_cast<double>(ref.index.size()), "ns",
         pass.size());
  r->AddQuantile("jl.apply_us", SelfSamples(self, "jl.apply"), 0.5, "us");
  const Samples block8 = SelfSamples(self, "jl.apply_block8");
  r->Add("jl.apply_block8_us", block8.Median() / kBatchProbes, "us", block8.size());
  r->AddQuantile("dp.noise_us", SelfSamples(self, "dp.noise"), 0.5, "us");
  r->AddQuantile("sketcher.sketch_us", SelfSamples(self, "sketcher.sketch"), 0.5, "us");
  const Samples setup_sketch = SelfSamples(self, "setup.sketch_batch");
  r->Add("batch.sketch_vps", static_cast<double>(kIngestBatch) / (setup_sketch.Median() * 1e-6),
         "vectors/s", setup_sketch.size());
  r->Add("snapshot.load_mbps", ref.load_mbps, "MB/s", 1);
  r->AddQuantile("frame.encode_us", SelfSamples(self, "frame.encode"), 0.5, "us");
  r->AddQuantile("frame.decode_us", SelfSamples(self, "frame.decode"), 0.5, "us");
  r->Add("host.stream_gbps", stream_gbps, "GB/s", 1);
  const Samples traced_nn = SelfSamples(self, "e2e.nn");
  r->Add("trace.nn_overhead_us", traced_nn.Median() - untraced_nn_p50, "us", traced_nn.size());
}

/// Resident bytes per stored sketch of the serving objects `owner` holds:
/// the resident set before and after destroying them, with freed pages
/// returned to the kernel in between.
template <typename T>
void ReportBytesPerSketch(std::unique_ptr<T>* owner, int64_t sketches, Report* report) {
  ReleaseFreeMemory();
  const double before = ResidentMb();
  owner->reset();
  ReleaseFreeMemory();
  report->Add("index.bytes_per_sketch",
              (before - ResidentMb()) * 1024.0 * 1024.0 / static_cast<double>(sketches), "bytes",
              sketches);
}

/// 8-probe batch time over eight direct single-thread scans: 1.0 means each
/// probe re-streams the corpus.
void ReportBatchRatio(const std::map<std::string, std::vector<double>>& self, Report* report) {
  const Samples batch = SelfSamples(self, "e2e.batch8");
  report->Add("index.batch8_over_nn",
              batch.Median() / (kBatchProbes * report->Find("index.nn_us")->value), "ratio",
              batch.size());
}

double PhaseSeconds(const Args& args) { return args.trace ? args.seconds / 2 : args.seconds; }

// ---------------------------------------------------------------------------
// query_scan: read-only serving over a corpus ~24x one core's L2. The scan,
// queue and merge layers do almost all the work; sketching and net none.

Sizes QueryScanSizes(bool quick) {
  Sizes s;
  s.corpus = quick ? 512 : 16384;
  s.probes = quick ? 32 : 256;
  s.recall_probes = s.probes;
  s.pairs = quick ? 256 : 4096;
  return s;
}

}  // namespace

bool RunQueryScan(const Args& args, Tracer* tracer, Report* report) {
  Common c;
  if (!Prepare(args, tracer, report, QueryScanSizes(args.quick), kQueryScanCpus, &c)) return false;
  std::unique_ptr<Engine> engine;
  Samples sketch_us;
  double ingest_vps = 0.0;
  const bool set_up = RepeatSetup(&c, [&](IngestStats* ingest) {
    engine.reset();
    dpjl::Result<std::unique_ptr<Engine>> created =
        Engine::Create(kDim, EngineOptionsFor(/*threads=*/2, /*serving=*/2));
    if (!created.ok()) {
      report->NonOk("Engine::Create: " + created.status().ToString());
      return false;
    }
    engine = std::move(created).value();
    return Ingest(engine.get(), c, 0, c.sizes.corpus, "setup.sketch_batch", "setup.insert_batch",
                  c.main, ingest);
  }, [&](int rep) { ReleaseSlice(engine.get(), &c, rep, &sketch_us); }, &ingest_vps);
  if (!set_up) return false;
  report->Add("ingest_vps", ingest_vps, "vectors/s", kSetupRepeats);
  report->Add("proc.threads", ThreadCount(), "count", 1);
  DropInputsAndReportRss(&c);

  Reference ref;
  if (!BuildReference(engine->SerializeIndex(), /*with_range=*/true, &c, &ref)) return false;
  ReportQuality(c, ref);

  const RequestFn request = [&](Op op, dpjl::Rng* rng, TraceBuffer* buffer, Tally* tally) {
    const int64_t p = static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(c.sizes.probes)));
    const PrivateSketch& query = c.probe_sketches[static_cast<size_t>(p)];
    Span root(buffer, kRequestSpan[op], buffer != nullptr ? tracer->NextRequest() : 0);
    if (buffer != nullptr) {
      const dpjl::EngineStats stats = engine->Stats();
      for (const auto& lane : stats.queue.lanes) {
        tally->lane_depth_max = std::max(tally->lane_depth_max, lane.depth);
      }
    }
    ++tally->attempted;
    double us = 0.0;
    switch (op) {
      case kNn: {
        const dpjl::Result<Neighbors> r =
            TimedUs(buffer, kE2eSpan[op], &us, [&] { return engine->SubmitQuery(query, kTopN).Get(); });
        if (!r.ok()) return tally->NonOk("SubmitQuery: " + r.status().ToString());
        Record(op, us, SameNeighbors(*r, ref.nn[static_cast<size_t>(p)]), "NN probe " + std::to_string(p),
               tally);
        if (buffer != nullptr) {
          Span span(buffer, "engine.sync_nn");
          const dpjl::Result<Neighbors> sync = engine->NearestNeighbors(query, kTopN);
          if (!sync.ok()) tally->NonOk("Engine::NearestNeighbors: " + sync.status().ToString());
        }
        return;
      }
      case kRange: {
        const dpjl::Result<Neighbors> r = TimedUs(buffer, kE2eSpan[op], &us, [&] {
          return engine->SubmitRangeQuery(query, ref.radius_sq).Get();
        });
        if (!r.ok()) return tally->NonOk("SubmitRangeQuery: " + r.status().ToString());
        return Record(op, us, SameNeighbors(*r, ref.range[static_cast<size_t>(p)]),
                      "range probe " + std::to_string(p), tally);
      }
      case kBatch8: {
        std::vector<PrivateSketch> batch = BatchAt(c, p);
        const dpjl::Result<std::vector<Neighbors>> r = TimedUs(buffer, kE2eSpan[op], &us, [&] {
          return engine->SubmitQueryBatch(std::move(batch), kTopN).Get();
        });
        if (!r.ok()) return tally->NonOk("SubmitQueryBatch: " + r.status().ToString());
        return Record(op, us, SameBatch(c, ref, p, *r), "batch8 from probe " + std::to_string(p), tally);
      }
      case kEst: {
        const size_t k = static_cast<size_t>(rng->UniformInt(c.truth.pairs.size()));
        const auto& [a, b] = c.truth.pairs[k];
        const dpjl::Result<double> r = TimedUs(buffer, kE2eSpan[op], &us, [&] {
          return engine->SubmitEstimate(DocId(a), DocId(b)).Get();
        });
        if (!r.ok()) return tally->NonOk("SubmitEstimate: " + r.status().ToString());
        return Record(op, us, SameDouble(*r, ref.pair_est[k]), "estimate pair " + std::to_string(k),
                      tally);
      }
      default:
        return;
    }
  };

  constexpr int kClients = 2;
  Account(RunClosedLoop(c, kClients, kWarmupSeconds, kClientStream + 50, nullptr, request).tally,
          report);
  const dpjl::EngineStats before = engine->Stats();
  const Phase phase = RunClosedLoop(c, kClients, PhaseSeconds(args), kClientStream, nullptr, request);
  Account(phase.tally, report);
  ReportReadPhase(phase, report);
  // A second release burst after the load phase, so sketch_p50_us samples
  // both ends of the run rather than one moment of it.
  ReleaseProbes(engine.get(), &c, 0, c.sizes.probes, &sketch_us);
  report->AddQuantile("sketch_p50_us", sketch_us, 0.5, "us");
  if (args.trace) {
    const Phase traced = RunClosedLoop(c, kClients, PhaseSeconds(args), kClientStream + 10, tracer, request);
    Account(traced.tally, report);
    const dpjl::EngineStats delta = engine->Stats().Delta(before);
    int64_t refused = 0;
    int64_t expired = 0;
    for (const auto& lane : delta.queue.lanes) {
      refused += lane.refused;
      expired += lane.expired;
    }
    report->Add("engine.lane_depth_max", static_cast<double>(traced.tally.lane_depth_max), "count",
                traced.tally.attempted);
    report->Add("engine.refused", static_cast<double>(refused), "count", 1);
    report->Add("engine.expired", static_cast<double>(expired), "count", 1);
    ReportCommonLayers(&c, ref, "e2e.nn", phase.tally.latency_us[kNn].Median());
    const auto self = tracer->SelfTimesUs();
    ReportBatchRatio(self, report);
    report->AddQuantile("index.insert_batch_us", SelfSamples(self, "setup.insert_batch"), 0.5, "us");
    ReportBytesPerSketch(&engine, c.sizes.corpus, report);
  }
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// ingest_mix: writes beside reads on one index. Sketching (jl, dp, random,
// batch_sketcher), index append and the write lock do most of the work,
// while each scan starts small.

Sizes IngestSizes(bool quick) {
  Sizes s;
  s.corpus = quick ? 256 : 2048;
  s.stream = quick ? 1024 : 32768;
  s.probes = quick ? 16 : 256;
  s.recall_probes = s.probes;
  s.pairs = quick ? 256 : 4096;
  return s;
}

/// A reader NN answer kept for the post-run check: the index grew from
/// `size_before` to `size_after` items while the request was in flight,
/// so the answer must equal the exact top-10 of some prefix in between.
struct ReaderAnswer {
  int64_t probe = 0;
  int64_t size_before = 0;
  int64_t size_after = 0;
  Neighbors result;
};

constexpr int64_t kCheckedReaderProbes = 32;

/// Checks the kept reader answers against brute-force estimates over the
/// final corpus (the corpus only ever grows by appending, so each prefix is
/// an earlier state of the index).
void CheckReaderAnswers(const std::vector<ReaderAnswer>& answers, const Common& c,
                        const Reference& ref, Report* report) {
  std::map<int64_t, std::vector<double>> estimates;  // per probe, by position
  for (const ReaderAnswer& answer : answers) {
    auto it = estimates.find(answer.probe);
    if (it == estimates.end()) {
      std::vector<double> all;
      for (int64_t i = 0; i < ref.index.size(); ++i) {
        const PrivateSketch* stored = ref.index.Find(DocId(i));
        if (stored == nullptr) {
          report->Wrong("final corpus lacks " + DocId(i));
          return;
        }
        const dpjl::Result<double> d =
            dpjl::EstimateSquaredDistance(c.probe_sketches[static_cast<size_t>(answer.probe)], *stored);
        if (!d.ok()) {
          report->NonOk("EstimateSquaredDistance: " + d.status().ToString());
          return;
        }
        all.push_back(*d);
      }
      it = estimates.emplace(answer.probe, std::move(all)).first;
    }
    const std::vector<double>& dist = it->second;
    // The index's (distance, id) order over positions.
    const auto less = [&](int64_t a, int64_t b) {
      if (dist[static_cast<size_t>(a)] != dist[static_cast<size_t>(b)]) {
        return dist[static_cast<size_t>(a)] < dist[static_cast<size_t>(b)];
      }
      return DocId(a) < DocId(b);
    };
    bool matched = false;
    for (int64_t size = answer.size_before; size <= answer.size_after && !matched; ++size) {
      if (size != answer.size_before && size != answer.size_after &&
          (size - c.sizes.corpus) % kIngestBatch != 0) {
        continue;
      }
      std::vector<int64_t> order(static_cast<size_t>(size));
      for (int64_t i = 0; i < size; ++i) order[static_cast<size_t>(i)] = i;
      const int64_t keep = std::min(kTopN, size);
      std::partial_sort(order.begin(), order.begin() + keep, order.end(), less);
      Neighbors expected;
      for (int64_t r = 0; r < keep; ++r) {
        const int64_t position = order[static_cast<size_t>(r)];
        expected.push_back({DocId(position), dist[static_cast<size_t>(position)]});
      }
      matched = SameNeighbors(expected, answer.result);
    }
    ++report->attempted;
    if (!matched) report->Wrong("reader NN of probe " + std::to_string(answer.probe));
  }
}

}  // namespace

bool RunIngestMix(const Args& args, Tracer* tracer, Report* report) {
  Common c;
  if (!Prepare(args, tracer, report, IngestSizes(args.quick), kIngestMixCpus, &c)) return false;
  const int64_t base = c.sizes.corpus;
  const int64_t total = base + c.sizes.stream;
  auto create = [&](IngestStats* ingest, TraceBuffer* buffer) -> std::unique_ptr<Engine> {
    dpjl::Result<std::unique_ptr<Engine>> created =
        Engine::Create(kDim, EngineOptionsFor(/*threads=*/2, /*serving=*/2));
    if (!created.ok()) {
      report->NonOk("Engine::Create: " + created.status().ToString());
      return nullptr;
    }
    if (!Ingest(created->get(), c, 0, base, "setup.sketch_batch", "setup.insert_batch", buffer,
                ingest)) {
      return nullptr;
    }
    return std::move(created).value();
  };
  if (!RepeatSetup(&c, [&](IngestStats* ingest) { return create(ingest, c.main) != nullptr; }, nullptr,
                   nullptr)) {
    return false;
  }

  // One round: a fresh engine holding the base, one writer streaming the
  // fixed vectors, one reader alternating NN and a one-vector release
  // until the writer finishes. Rounds repeat until the phase time is used.
  struct Totals {
    Samples nn_us;
    Samples sketch_us;
    IngestStats writer;
  };
  std::vector<ReaderAnswer> answers;
  std::unique_ptr<Engine> engine;
  auto round = [&](bool traced, Totals* totals) -> bool {
    engine.reset();
    IngestStats unused;
    engine = create(&unused, nullptr);
    if (engine == nullptr) return false;
    TraceBuffer* writer_buffer = traced ? tracer->NewBuffer() : nullptr;
    TraceBuffer* reader_buffer = traced ? tracer->NewBuffer() : nullptr;
    std::atomic<bool> writing{true};
    Tally tally;
    std::thread reader([&] {
      dpjl::Rng rng(dpjl::DeriveSeed(args.seed, kClientStream + (traced ? 1 : 0)));
      while (writing.load()) {
        const int64_t p = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(c.sizes.probes)));
        const PrivateSketch& query = c.probe_sketches[static_cast<size_t>(p)];
        {
          Span root(reader_buffer, "request.nn", traced ? tracer->NextRequest() : 0);
          ++tally.attempted;
          const int64_t size_before = engine->index_size();
          double us = 0.0;
          dpjl::Result<Neighbors> r =
              TimedUs(reader_buffer, "e2e.nn", &us, [&] { return engine->SubmitQuery(query, kTopN).Get(); });
          const int64_t size_after = engine->index_size();
          if (!r.ok()) {
            tally.NonOk("SubmitQuery: " + r.status().ToString());
          } else {
            ++tally.ok;
            totals->nn_us.Add(us);
            if (p < kCheckedReaderProbes) answers.push_back({p, size_before, size_after, std::move(*r)});
          }
          if (traced) {
            Span span(reader_buffer, "engine.sync_nn");
            const dpjl::Result<Neighbors> sync = engine->NearestNeighbors(query, kTopN);
            if (!sync.ok()) tally.NonOk("Engine::NearestNeighbors: " + sync.status().ToString());
          }
        }
        Span root(reader_buffer, "request.sketch", traced ? tracer->NextRequest() : 0);
        ++tally.attempted;
        double us = 0.0;
        const dpjl::Result<PrivateSketch> released = TimedUs(reader_buffer, "e2e.sketch", &us, [&] {
          return engine->SubmitSketch(c.inputs.probes[static_cast<size_t>(p)], ProbeNoiseSeed(args.seed, p))
              .Get();
        });
        if (!released.ok()) {
          tally.NonOk("SubmitSketch: " + released.status().ToString());
        } else if (released->Serialize() != c.probe_bytes[static_cast<size_t>(p)]) {
          tally.Wrong("SubmitSketch of probe " + std::to_string(p));
        } else {
          ++tally.ok;
          totals->sketch_us.Add(us);
        }
      }
    });
    const bool written = Ingest(engine.get(), c, base, total, "writer.sketch_batch",
                                "writer.insert_batch", writer_buffer, &totals->writer);
    writing.store(false);
    reader.join();
    Account(tally, report);
    return written;
  };
  auto run_phase = [&](bool traced, Totals* totals) -> bool {
    const int64_t deadline = NowNs() + static_cast<int64_t>(PhaseSeconds(args) * 1e9);
    do {
      if (!round(traced, totals)) return false;
    } while (NowNs() < deadline);
    return true;
  };
  Totals untraced;
  if (!run_phase(false, &untraced)) return false;
  report->AddQuantile("nn_p50_us", untraced.nn_us, 0.5, "us");
  report->AddQuantile("nn_p99_us", untraced.nn_us, 0.99, "us");
  report->AddQuantile("sketch_p50_us", untraced.sketch_us, 0.5, "us");
  report->Add("ingest_vps", static_cast<double>(untraced.writer.vectors) / untraced.writer.seconds,
              "vectors/s", untraced.writer.vectors);
  report->Add("query_qps", static_cast<double>(untraced.nn_us.size()) / untraced.writer.seconds, "req/s",
              untraced.nn_us.size());
  Totals traced;
  if (args.trace && !run_phase(true, &traced)) return false;
  report->Add("proc.threads", ThreadCount(), "count", 1);

  // The rounds leave the heap fragmented in a timing-dependent way (four
  // threads allocate and free concurrently), so the resident set is taken
  // with the final corpus reloaded from its snapshot into a fresh engine.
  {
    const std::string snapshot = engine->SerializeIndex();
    engine.reset();
    dpjl::Result<SketchIndex> index = SketchIndex::Deserialize(snapshot);
    if (!index.ok()) {
      report->NonOk("SketchIndex::Deserialize: " + index.status().ToString());
      return false;
    }
    dpjl::Result<std::unique_ptr<Engine>> reloaded =
        Engine::FromIndex(std::move(index).value(), EngineOptionsFor(/*threads=*/2, /*serving=*/2));
    if (!reloaded.ok()) {
      report->NonOk("Engine::FromIndex: " + reloaded.status().ToString());
      return false;
    }
    engine = std::move(reloaded).value();
  }
  DropInputsAndReportRss(&c);
  Reference ref;
  if (!BuildReference(engine->SerializeIndex(), /*with_range=*/args.trace, &c, &ref)) return false;
  ReportQuality(c, ref);
  CheckReaderAnswers(answers, c, ref, report);

  if (args.trace) {
    ReportCommonLayers(&c, ref, "e2e.nn", untraced.nn_us.Median());
    const auto self = tracer->SelfTimesUs();
    report->AddQuantile("index.insert_batch_us", SelfSamples(self, "writer.insert_batch"), 0.5, "us");
    // Reader NN spans that overlap a writer InsertBatch (the write lock)
    // against those that do not.
    const std::vector<SpanRecord> records = tracer->Records();
    std::vector<std::pair<int64_t, int64_t>> writes;
    for (const SpanRecord& record : records) {
      if (std::strcmp(record.name, "writer.insert_batch") == 0) writes.emplace_back(record.start_ns, record.end_ns);
    }
    std::sort(writes.begin(), writes.end());
    Samples overlap;
    Samples clear;
    for (const SpanRecord& record : records) {
      if (std::strcmp(record.name, "e2e.nn") != 0) continue;
      auto it = std::lower_bound(writes.begin(), writes.end(),
                                 std::make_pair(record.end_ns, std::numeric_limits<int64_t>::max()));
      bool overlaps = false;
      while (it != writes.begin()) {
        --it;
        if (it->second >= record.start_ns) {
          overlaps = true;
          break;
        }
        if (it->first < record.start_ns - 1000000000) break;
      }
      (overlaps ? overlap : clear).Add(record.DurationUs());
    }
    report->AddQuantile("engine.nn_overlap_us", overlap, 0.5, "us");
    report->AddQuantile("engine.nn_clear_us", clear, 0.5, "us");
    ReportBytesPerSketch(&engine, total, report);
  }
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// routed: the net tier. Frame codecs, sockets, server readers and router
// fan-out/merge/point routing carry most of the cost; each scan covers only
// a quarter of the corpus.

Sizes RoutedSizes(bool quick) {
  Sizes s;
  s.corpus = quick ? 512 : 4096;
  s.probes = quick ? 32 : 256;
  s.recall_probes = s.probes;
  s.pairs = quick ? 256 : 4096;
  return s;
}

/// Four one-partition engines, each behind its own loopback server, and the
/// router over them. Members are destroyed router first, engines last.
struct Tier {
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<dpjl::net::Server>> servers;
  std::vector<std::unique_ptr<dpjl::net::Client>> clients;  // one-hop probes
  std::unique_ptr<dpjl::net::Router> router;
};

}  // namespace

bool RunRouted(const Args& args, Tracer* tracer, Report* report) {
  Common c;
  if (!Prepare(args, tracer, report, RoutedSizes(args.quick), kRoutedCpus, &c)) return false;
  Samples sketch_us;
  double ingest_vps = 0.0;
  std::unique_ptr<Engine> source;  // builds the corpus, then is dropped
  std::unique_ptr<Tier> tier;
  dpjl::ShardManifest manifest;
  const bool set_up = RepeatSetup(&c, [&](IngestStats* ingest) {
    tier.reset();
    source.reset();
    // One pool thread on the one CPU: two would only take turns on it.
    dpjl::Result<std::unique_ptr<Engine>> created =
        Engine::Create(kDim, EngineOptionsFor(/*threads=*/1, /*serving=*/1));
    if (!created.ok()) {
      report->NonOk("Engine::Create: " + created.status().ToString());
      return false;
    }
    source = std::move(created).value();
    if (!Ingest(source.get(), c, 0, c.sizes.corpus, "setup.sketch_batch", "setup.insert_batch", c.main,
                ingest)) {
      return false;
    }
    dpjl::Result<SketchIndex> monolithic = SketchIndex::Deserialize(source->SerializeIndex());
    if (!monolithic.ok()) {
      report->NonOk("Deserialize: " + monolithic.status().ToString());
      return false;
    }
    dpjl::Result<SketchIndex::PartitionedSnapshot> exported = monolithic->ExportPartitions(kPartitions);
    if (!exported.ok()) {
      report->NonOk("ExportPartitions: " + exported.status().ToString());
      return false;
    }
    manifest = exported->manifest;
    tier = std::make_unique<Tier>();
    std::vector<std::vector<dpjl::net::Endpoint>> groups;
    for (const std::string& blob : exported->partitions) {
      dpjl::Result<SketchIndex> part = [&] {
        Span span(c.main, "setup.partition_deserialize");
        return SketchIndex::Deserialize(blob);
      }();
      if (!part.ok()) {
        report->NonOk("partition Deserialize: " + part.status().ToString());
        return false;
      }
      dpjl::Result<std::unique_ptr<Engine>> engine = Engine::FromIndex(
          std::move(part).value(), EngineOptionsFor(/*threads=*/1, /*serving=*/1));
      if (!engine.ok()) {
        report->NonOk("Engine::FromIndex: " + engine.status().ToString());
        return false;
      }
      tier->engines.push_back(std::move(engine).value());
      dpjl::Result<std::unique_ptr<dpjl::net::Server>> server =
          dpjl::net::Server::Start(tier->engines.back().get(), {});
      if (!server.ok()) {
        report->NonOk("Server::Start: " + server.status().ToString());
        return false;
      }
      groups.push_back({dpjl::net::Endpoint{(*server)->host(), (*server)->port()}});
      tier->clients.push_back(
          std::make_unique<dpjl::net::Client>((*server)->host(), (*server)->port()));
      tier->servers.push_back(std::move(server).value());
    }
    dpjl::Result<std::unique_ptr<dpjl::net::Router>> router =
        dpjl::net::Router::Create(exported->manifest, groups);
    if (!router.ok()) {
      report->NonOk("Router::Create: " + router.status().ToString());
      return false;
    }
    tier->router = std::move(router).value();
    return true;
  }, [&](int rep) { ReleaseSlice(source.get(), &c, rep, &sketch_us); }, &ingest_vps);
  if (!set_up) return false;
  report->Add("ingest_vps", ingest_vps, "vectors/s", kSetupRepeats);
  source.reset();
  DropInputsAndReportRss(&c);

  // The reference is the monolithic corpus reassembled from what the
  // partition engines serve.
  std::vector<std::string> parts;
  for (const auto& engine : tier->engines) parts.push_back(engine->SerializeIndex());
  dpjl::Result<SketchIndex> merged = SketchIndex::FromPartitions(manifest, parts);
  if (!merged.ok()) {
    report->NonOk("FromPartitions: " + merged.status().ToString());
    return false;
  }
  Reference ref;
  if (!BuildReference(merged->Serialize(), /*with_range=*/true, &c, &ref)) return false;
  ReportQuality(c, ref);

  // Point routing over every stored id. Router::GetSketch treats the
  // manifest's insertion-order first/last ids as lexicographic bounds, so
  // with doc<N> ids some ids route to a partition that does not hold them
  // (NOTES.md has the repro). Estimate requests draw their pairs from the
  // ids the router resolves, so no request of the load phase fails; the
  // miss share is reported as router.point_miss_frac.
  std::unordered_map<std::string, bool> resolvable;
  int64_t misses = 0;
  for (int64_t i = 0; i < c.sizes.corpus; ++i) {
    const std::string id = DocId(i);
    const dpjl::Result<PrivateSketch> got = [&] {
      Span span(c.main, "router.get_sketch");
      return tier->router->GetSketch(id);
    }();
    const bool found = got.ok() && got->Serialize() == ref.index.Find(id)->Serialize();
    if (!got.ok() && got.status().code() != dpjl::StatusCode::kNotFound) {
      report->NonOk("Router::GetSketch(" + id + "): " + got.status().ToString());
    }
    if (got.ok() && !found) report->Wrong("Router::GetSketch(" + id + ") differs from the index");
    if (!found) ++misses;
    resolvable[id] = found;
  }
  const double miss_frac = static_cast<double>(misses) / static_cast<double>(c.sizes.corpus);
  std::vector<size_t> routable_pairs;
  for (size_t k = 0; k < c.truth.pairs.size(); ++k) {
    if (resolvable[DocId(c.truth.pairs[k].first)] && resolvable[DocId(c.truth.pairs[k].second)]) {
      routable_pairs.push_back(k);
    }
  }
  report->context.emplace_back("routable_pairs", std::to_string(routable_pairs.size()) + " of " +
                                                     std::to_string(c.truth.pairs.size()));
  if (routable_pairs.empty()) {
    report->NonOk("no stored pair resolves through the router");
    return false;
  }

  dpjl::net::Router* router = tier->router.get();
  const RequestFn request = [&](Op op, dpjl::Rng* rng, TraceBuffer* buffer, Tally* tally) {
    const int64_t p = static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(c.sizes.probes)));
    const PrivateSketch& query = c.probe_sketches[static_cast<size_t>(p)];
    Span root(buffer, kRequestSpan[op], buffer != nullptr ? tracer->NextRequest() : 0);
    ++tally->attempted;
    double us = 0.0;
    switch (op) {
      case kNn: {
        const dpjl::Result<Neighbors> r =
            TimedUs(buffer, kE2eSpan[op], &us, [&] { return router->NearestNeighbors(query, kTopN); });
        if (!r.ok()) return tally->NonOk("Router::NearestNeighbors: " + r.status().ToString());
        Record(op, us, SameNeighbors(*r, ref.nn[static_cast<size_t>(p)]), "routed NN probe " + std::to_string(p),
               tally);
        if (buffer == nullptr) return;
        // One-hop calls to every partition, one ping, and an async/sync
        // pair on one partition engine: the layers under this request.
        static const char* const kClientNn[kPartitions] = {"client.nn.0", "client.nn.1", "client.nn.2",
                                                           "client.nn.3"};
        for (int g = 0; g < kPartitions; ++g) {
          Span span(buffer, kClientNn[g]);
          const dpjl::Result<Neighbors> hop = tier->clients[static_cast<size_t>(g)]->NearestNeighbors(query, kTopN);
          if (!hop.ok()) tally->NonOk("Client::NearestNeighbors: " + hop.status().ToString());
        }
        const size_t g = static_cast<size_t>(p % kPartitions);
        {
          Span span(buffer, "client.ping");
          const dpjl::Status ping = tier->clients[g]->Ping();
          if (!ping.ok()) tally->NonOk("Client::Ping: " + ping.ToString());
        }
        {
          Span span(buffer, "engine.async_nn");
          const dpjl::Result<Neighbors> async = tier->engines[g]->SubmitQuery(query, kTopN).Get();
          if (!async.ok()) tally->NonOk("partition SubmitQuery: " + async.status().ToString());
        }
        Span span(buffer, "engine.sync_nn");
        const dpjl::Result<Neighbors> sync = tier->engines[g]->NearestNeighbors(query, kTopN);
        if (!sync.ok()) tally->NonOk("partition NearestNeighbors: " + sync.status().ToString());
        return;
      }
      case kRange: {
        const dpjl::Result<Neighbors> r =
            TimedUs(buffer, kE2eSpan[op], &us, [&] { return router->RangeQuery(query, ref.radius_sq); });
        if (!r.ok()) return tally->NonOk("Router::RangeQuery: " + r.status().ToString());
        return Record(op, us, SameNeighbors(*r, ref.range[static_cast<size_t>(p)]),
                      "routed range probe " + std::to_string(p), tally);
      }
      case kBatch8: {
        const std::vector<PrivateSketch> batch = BatchAt(c, p);
        const dpjl::Result<std::vector<Neighbors>> r =
            TimedUs(buffer, kE2eSpan[op], &us, [&] { return router->BatchQuery(batch, kTopN); });
        if (!r.ok()) return tally->NonOk("Router::BatchQuery: " + r.status().ToString());
        return Record(op, us, SameBatch(c, ref, p, *r), "routed batch8 from probe " + std::to_string(p), tally);
      }
      case kEst: {
        const size_t k = routable_pairs[rng->UniformInt(routable_pairs.size())];
        const auto& [a, b] = c.truth.pairs[k];
        const dpjl::Result<double> r =
            TimedUs(buffer, kE2eSpan[op], &us, [&] { return router->SquaredDistance(DocId(a), DocId(b)); });
        if (!r.ok()) return tally->NonOk("Router::SquaredDistance: " + r.status().ToString());
        return Record(op, us, SameDouble(*r, ref.pair_est[k]), "routed estimate pair " + std::to_string(k),
                      tally);
      }
      default:
        return;
    }
  };

  // One client, and the whole tier on one CPU (kRoutedCpus): each thread
  // hand-off of a request is a context switch on a busy CPU, never the
  // wake-up of an idle vCPU, so a request costs the CPU time of every layer
  // it crosses, summed over the serial fan-out.
  constexpr int kClients = 1;
  Account(RunClosedLoop(c, kClients, kWarmupSeconds, kClientStream + 50, nullptr, request).tally, report);
  // Counted once the warm-up has started every serving and reader thread.
  report->Add("proc.threads", ThreadCount(), "count", 1);
  const Phase phase = RunClosedLoop(c, kClients, PhaseSeconds(args), kClientStream, nullptr, request);
  Account(phase.tally, report);
  ReportReadPhase(phase, report);
  {
    // Second release burst (see query_scan), through a fresh engine with
    // the options of the engine that built the corpus, which is destroyed
    // once serving starts.
    dpjl::Result<std::unique_ptr<Engine>> releaser =
        Engine::Create(kDim, EngineOptionsFor(/*threads=*/1, /*serving=*/1));
    if (!releaser.ok()) {
      report->NonOk("Engine::Create: " + releaser.status().ToString());
      return false;
    }
    ReleaseProbes(releaser->get(), &c, 0, c.sizes.probes, &sketch_us);
  }
  report->AddQuantile("sketch_p50_us", sketch_us, 0.5, "us");
  if (args.trace) {
    const Phase traced = RunClosedLoop(c, kClients, PhaseSeconds(args), kClientStream + 10, tracer, request);
    Account(traced.tally, report);
    ReportCommonLayers(&c, ref, "engine.async_nn", phase.tally.latency_us[kNn].Median());
    const auto self = tracer->SelfTimesUs();
    report->AddQuantile("index.insert_batch_us", SelfSamples(self, "setup.insert_batch"), 0.5, "us");
    report->AddQuantile("client.ping_us", SelfSamples(self, "client.ping"), 0.5, "us");
    double sum = 0.0;
    double slowest = 0.0;
    Samples hops;
    for (int g = 0; g < kPartitions; ++g) {
      const Samples hop = SelfSamples(self, "client.nn." + std::to_string(g));
      sum += hop.Median();
      slowest = std::max(slowest, hop.Median());
      hops.Append(hop);
    }
    report->AddQuantile("client.nn_us", hops, 0.5, "us");
    const Samples routed_nn = SelfSamples(self, "e2e.nn");
    report->Add("router.fanout_over_sum", routed_nn.Median() / sum, "ratio", routed_nn.size());
    report->Add("router.fanout_floor", slowest / sum, "ratio", hops.size());
    report->Add("router.point_miss_frac", miss_frac, "fraction", c.sizes.corpus);
    ReportBatchRatio(self, report);
    ReportBytesPerSketch(&tier, c.sizes.corpus, report);
  }
  return true;
}

}  // namespace perfbench
