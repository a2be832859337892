#include "src/core/engine.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "src/common/check.h"
#include "src/jl/make_transform.h"

namespace dpjl {
namespace {

Result<double> ParseDoubleFlag(const std::string& key, const std::string& raw) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE) {
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   raw + "'");
  }
  return value;
}

Result<int64_t> ParseIntFlag(const std::string& key, const std::string& raw,
                             int64_t min, int64_t max) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE ||
      value < min || value > max) {
    return Status::InvalidArgument(
        "--" + key + " expects an integer in [" + std::to_string(min) + ", " +
        std::to_string(max) + "], got '" + raw + "'");
  }
  return static_cast<int64_t>(value);
}

Result<uint64_t> ParseSeedFlag(const std::string& key, const std::string& raw) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE ||
      raw.front() == '-') {
    return Status::InvalidArgument("--" + key +
                                   " expects a non-negative integer, got '" +
                                   raw + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<SketcherConfig::NoiseSelection> ParseNoiseFlag(const std::string& raw) {
  if (raw == "auto") return SketcherConfig::NoiseSelection::kAuto;
  if (raw == "laplace") return SketcherConfig::NoiseSelection::kLaplace;
  if (raw == "gaussian") return SketcherConfig::NoiseSelection::kGaussian;
  if (raw == "none") return SketcherConfig::NoiseSelection::kNone;
  return Status::InvalidArgument("unknown noise selection '" + raw +
                                 "' (expected auto|laplace|gaussian|none)");
}

std::string NoiseFlagName(SketcherConfig::NoiseSelection noise) {
  switch (noise) {
    case SketcherConfig::NoiseSelection::kAuto:
      return "auto";
    case SketcherConfig::NoiseSelection::kLaplace:
      return "laplace";
    case SketcherConfig::NoiseSelection::kGaussian:
      return "gaussian";
    case SketcherConfig::NoiseSelection::kNone:
      return "none";
  }
  return "auto";
}

Result<NoisePlacement> ParsePlacementFlag(const std::string& raw) {
  if (raw == "output") return NoisePlacement::kOutput;
  if (raw == "input") return NoisePlacement::kInput;
  if (raw == "post-hadamard") return NoisePlacement::kPostHadamard;
  return Status::InvalidArgument("unknown placement '" + raw +
                                 "' (expected output|input|post-hadamard)");
}

std::string PlacementFlagName(NoisePlacement placement) {
  switch (placement) {
    case NoisePlacement::kOutput:
      return "output";
    case NoisePlacement::kInput:
      return "input";
    case NoisePlacement::kPostHadamard:
      return "post-hadamard";
  }
  return "output";
}

Result<TransformKind> ParseTransformFlag(const std::string& raw) {
  // Short CLI aliases plus every TransformKindName() rendering, so
  // EngineOptions::ToString round-trips for all kinds.
  if (raw == "sjlt" || raw == "sjlt-block") return TransformKind::kSjltBlock;
  if (raw == "sjlt-graph") return TransformKind::kSjltGraph;
  if (raw == "fjlt") return TransformKind::kFjlt;
  if (raw == "gaussian" || raw == "gaussian-iid") {
    return TransformKind::kGaussianIid;
  }
  if (raw == "achlioptas") return TransformKind::kAchlioptas;
  if (raw == "sparse-uniform") return TransformKind::kSparseUniform;
  return Status::InvalidArgument(
      "unknown transform '" + raw +
      "' (expected sjlt|sjlt-graph|fjlt|gaussian|achlioptas|sparse-uniform)");
}

/// Shortest decimal form that strtod parses back to the identical double,
/// so ToString -> Parse is exactly the identity the header promises.
std::string FormatDouble(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

Result<EngineOptions> EngineOptions::Parse(
    const std::map<std::string, std::string>& flags,
    const std::vector<std::string>& passthrough) {
  // The one list of engine flag names; a key outside it (and outside the
  // caller's declared passthrough) is a typo, not something to silently
  // ignore.
  static const std::set<std::string> kRecognized{
      "epsilon",        "delta",         "alpha",
      "beta",           "seed",          "transform",
      "k-override",     "s-override",    "noise",
      "placement",      "threads",       "serving-threads",
      "queue-capacity", "tenant-quota",  "tenant-rate",
      "deadline-ms",    "starvation-age-ms", "batch-grain"};
  for (const auto& entry : flags) {
    if (kRecognized.count(entry.first) == 0 &&
        std::find(passthrough.begin(), passthrough.end(), entry.first) ==
            passthrough.end()) {
      return Status::InvalidArgument(
          "unknown flag --" + entry.first +
          " (not an engine flag; see EngineOptions::Parse for the "
          "recognized set, or declare caller-specific keys as passthrough)");
    }
  }
  EngineOptions options;
  const auto find = [&flags](const char* key) -> const std::string* {
    const auto it = flags.find(key);
    return it == flags.end() ? nullptr : &it->second;
  };
  if (const std::string* raw = find("epsilon")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.epsilon,
                          ParseDoubleFlag("epsilon", *raw));
  }
  if (const std::string* raw = find("delta")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.delta, ParseDoubleFlag("delta", *raw));
  }
  if (const std::string* raw = find("alpha")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.alpha, ParseDoubleFlag("alpha", *raw));
  }
  if (const std::string* raw = find("beta")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.beta, ParseDoubleFlag("beta", *raw));
  }
  if (const std::string* raw = find("seed")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.projection_seed,
                          ParseSeedFlag("seed", *raw));
  }
  if (const std::string* raw = find("transform")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.transform, ParseTransformFlag(*raw));
  }
  if (const std::string* raw = find("k-override")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.k_override,
                          ParseIntFlag("k-override", *raw, 0, 1 << 30));
  }
  if (const std::string* raw = find("s-override")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.s_override,
                          ParseIntFlag("s-override", *raw, 0, 1 << 30));
  }
  if (const std::string* raw = find("noise")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.noise_selection,
                          ParseNoiseFlag(*raw));
  }
  if (const std::string* raw = find("placement")) {
    DPJL_ASSIGN_OR_RETURN(options.sketcher.placement, ParsePlacementFlag(*raw));
  }
  if (const std::string* raw = find("threads")) {
    DPJL_ASSIGN_OR_RETURN(const int64_t threads,
                          ParseIntFlag("threads", *raw, 0, 4096));
    options.threads = static_cast<int>(threads);
  }
  if (const std::string* raw = find("serving-threads")) {
    DPJL_ASSIGN_OR_RETURN(const int64_t serving,
                          ParseIntFlag("serving-threads", *raw, 1, 256));
    options.serving_threads = static_cast<int>(serving);
  }
  if (const std::string* raw = find("queue-capacity")) {
    DPJL_ASSIGN_OR_RETURN(options.queue_capacity,
                          ParseIntFlag("queue-capacity", *raw, 1, 1 << 20));
  }
  if (const std::string* raw = find("tenant-quota")) {
    DPJL_ASSIGN_OR_RETURN(options.tenant_quota,
                          ParseIntFlag("tenant-quota", *raw, 0, 1 << 20));
  }
  if (const std::string* raw = find("tenant-rate")) {
    DPJL_ASSIGN_OR_RETURN(options.tenant_rate,
                          ParseIntFlag("tenant-rate", *raw, 0, 1 << 20));
  }
  if (const std::string* raw = find("deadline-ms")) {
    DPJL_ASSIGN_OR_RETURN(
        options.default_deadline_ms,
        ParseIntFlag("deadline-ms", *raw, 0,
                     std::numeric_limits<int64_t>::max() / 2));
  }
  if (const std::string* raw = find("starvation-age-ms")) {
    DPJL_ASSIGN_OR_RETURN(
        options.starvation_age_ms,
        ParseIntFlag("starvation-age-ms", *raw, 0,
                     std::numeric_limits<int64_t>::max() / 2));
  }
  if (const std::string* raw = find("batch-grain")) {
    DPJL_ASSIGN_OR_RETURN(options.batch_grain,
                          ParseIntFlag("batch-grain", *raw, 0, 1 << 20));
  }
  DPJL_RETURN_IF_ERROR(options.Validate());
  return options;
}

std::string EngineOptions::ToString() const {
  std::ostringstream out;
  out << "--transform=" << TransformKindName(sketcher.transform)
      << " --alpha=" << FormatDouble(sketcher.alpha)
      << " --beta=" << FormatDouble(sketcher.beta)
      << " --k-override=" << sketcher.k_override
      << " --s-override=" << sketcher.s_override
      << " --epsilon=" << FormatDouble(sketcher.epsilon)
      << " --delta=" << FormatDouble(sketcher.delta)
      << " --noise=" << NoiseFlagName(sketcher.noise_selection)
      << " --placement=" << PlacementFlagName(sketcher.placement)
      << " --seed=" << sketcher.projection_seed << " --threads=" << threads
      << " --serving-threads=" << serving_threads
      << " --queue-capacity=" << queue_capacity
      << " --tenant-quota=" << tenant_quota
      << " --tenant-rate=" << tenant_rate
      << " --deadline-ms=" << default_deadline_ms
      << " --starvation-age-ms=" << starvation_age_ms
      << " --batch-grain=" << batch_grain;
  return out.str();
}

Status EngineOptions::Validate() const {
  if (threads < 0 || threads > 4096) {
    return Status::InvalidArgument(
        "threads must lie in [0, 4096] (0 = all hardware cores)");
  }
  if (serving_threads < 1 || serving_threads > 256) {
    return Status::InvalidArgument("serving-threads must lie in [1, 256]");
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue-capacity must be at least 1");
  }
  if (tenant_quota < 0) {
    return Status::InvalidArgument(
        "tenant-quota must be non-negative (0 = unlimited)");
  }
  if (tenant_rate < 0 || tenant_rate > (int64_t{1} << 20)) {
    return Status::InvalidArgument(
        "tenant-rate must lie in [0, 2^20] requests/s (0 = unmetered)");
  }
  if (default_deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline-ms must be non-negative (0 = no deadline)");
  }
  if (starvation_age_ms < 0) {
    return Status::InvalidArgument(
        "starvation-age-ms must be non-negative (0 = strict priority)");
  }
  if (batch_grain < 0 || batch_grain > (int64_t{1} << 20)) {
    return Status::InvalidArgument(
        "batch-grain must lie in [0, 2^20] (0 = auto from batch size and "
        "threads)");
  }
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::Create(int64_t d,
                                               const EngineOptions& options) {
  DPJL_RETURN_IF_ERROR(options.Validate());
  DPJL_ASSIGN_OR_RETURN(PrivateSketcher sketcher,
                        PrivateSketcher::Create(d, options.sketcher));
  return std::unique_ptr<Engine>(
      new Engine(options, std::move(sketcher), SketchIndex()));
}

Result<std::unique_ptr<Engine>> Engine::FromIndex(SketchIndex index,
                                                  const EngineOptions& options) {
  DPJL_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<Engine>(
      new Engine(options, std::nullopt, std::move(index)));
}

Engine::Engine(EngineOptions options, std::optional<PrivateSketcher> sketcher,
               SketchIndex index)
    : options_(std::move(options)),
      sketcher_(std::move(sketcher)),
      index_(std::move(index)),
      queue_(std::make_shared<RequestQueue>(
          options_.queue_capacity, options_.tenant_quota,
          std::chrono::milliseconds(options_.starvation_age_ms),
          options_.tenant_rate)) {
  const int threads =
      options_.threads == 0 ? ThreadPool::DefaultThreadCount() : options_.threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (sketcher_) batcher_.emplace(&*sketcher_, pool_.get(), options_.batch_grain);
}

void Engine::EnsureServing() {
  std::call_once(servers_started_, [this] {
    servers_.reserve(static_cast<size_t>(options_.serving_threads));
    for (int i = 0; i < options_.serving_threads; ++i) {
      servers_.emplace_back([this] {
        while (queue_->ServeOne()) {
        }
      });
    }
  });
}

Engine::~Engine() {
  queue_->Close();
  for (std::thread& server : servers_) server.join();
}

const PrivateSketcher& Engine::sketcher() const {
  DPJL_CHECK(sketcher_.has_value(),
             "serving-only engine (built via FromIndex) has no sketcher");
  return *sketcher_;
}

PrivateSketch Engine::Sketch(const std::vector<double>& x,
                             uint64_t noise_seed) const {
  return sketcher().Sketch(x, noise_seed);
}

PrivateSketch Engine::SketchSparse(const SparseVector& x,
                                   uint64_t noise_seed) const {
  return sketcher().SketchSparse(x, noise_seed);
}

Result<std::vector<PrivateSketch>> Engine::SketchBatch(
    const std::vector<std::vector<double>>& xs, uint64_t base_noise_seed) const {
  if (!batcher_.has_value()) {
    return Status::FailedPrecondition(
        "serving-only engine (built via FromIndex) cannot sketch");
  }
  return batcher_->BatchSketch(xs, base_noise_seed);
}

Status Engine::Insert(std::string id, PrivateSketch sketch) {
  WriterLock lock(index_mutex_);
  return index_.Add(std::move(id), std::move(sketch));
}

Status Engine::InsertBatch(
    std::vector<std::pair<std::string, PrivateSketch>> items) {
  WriterLock lock(index_mutex_);
  return index_.AddBatch(std::move(items));
}

Status Engine::InsertVector(std::string id, const std::vector<double>& x,
                            uint64_t noise_seed) {
  return Insert(std::move(id), Sketch(x, noise_seed));
}

int64_t Engine::index_size() const {
  ReaderLock lock(index_mutex_);
  return index_.size();
}

std::vector<std::string> Engine::ids() const {
  ReaderLock lock(index_mutex_);
  return index_.ids();
}

std::string Engine::SerializeIndex() const {
  ReaderLock lock(index_mutex_);
  return index_.Serialize();
}

Result<int64_t> Engine::AttachPartition(SketchIndex partition) {
  WriterLock lock(index_mutex_);
  return index_.AttachSegment(std::move(partition));
}

Status Engine::DetachPartition(int64_t handle) {
  WriterLock lock(index_mutex_);
  return index_.DetachSegment(handle);
}

int64_t Engine::num_partitions() const {
  ReaderLock lock(index_mutex_);
  return index_.num_attached();
}

Result<std::vector<SketchIndex::Neighbor>> Engine::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n) const {
  ReaderLock lock(index_mutex_);
  return index_.NearestNeighbors(query, top_n, pool_.get());
}

Result<std::vector<SketchIndex::Neighbor>> Engine::RangeQuery(
    const PrivateSketch& query, double radius_sq) const {
  ReaderLock lock(index_mutex_);
  return index_.RangeQuery(query, radius_sq, pool_.get());
}

Result<SketchIndex::DistanceMatrix> Engine::AllPairsDistances() const {
  ReaderLock lock(index_mutex_);
  return index_.AllPairsDistances(pool_.get());
}

Result<double> Engine::SquaredDistance(const std::string& id_a,
                                       const std::string& id_b) const {
  ReaderLock lock(index_mutex_);
  return index_.SquaredDistance(id_a, id_b);
}

Result<PrivateSketch> Engine::GetSketch(const std::string& id) const {
  ReaderLock lock(index_mutex_);
  if (const PrivateSketch* found = index_.Find(id)) return *found;
  return Status::NotFound("unknown sketch id: " + id);
}

RequestQueue::Clock::time_point Engine::DeadlineFor(int64_t deadline_ms) const {
  const int64_t ms =
      deadline_ms == kDefaultDeadline ? options_.default_deadline_ms : deadline_ms;
  if (ms == 0) return RequestQueue::kNoDeadline;
  // An already-negative budget (caller's total minus elapsed) is expired on
  // arrival, not "no deadline".
  if (ms < 0) return RequestQueue::Clock::time_point::min();
  // Budgets too large to represent on the clock (now + ms would overflow
  // the nanosecond tick count) are effectively "never expires".
  const auto now = RequestQueue::Clock::now();
  const int64_t representable_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          RequestQueue::kNoDeadline - now)
          .count();
  if (ms >= representable_ms) return RequestQueue::kNoDeadline;
  return now + std::chrono::milliseconds(ms);
}

namespace {

constexpr char kCancelledBeforeScan[] = "query cancelled before its scan";

RequestOptions WithDeadline(int64_t deadline_ms) {
  RequestOptions options;
  options.deadline_ms = deadline_ms;
  return options;
}

}  // namespace

EngineFuture<PrivateSketch> Engine::SubmitSketch(std::vector<double> x,
                                                 uint64_t noise_seed,
                                                 const RequestOptions& request) {
  return Submit<PrivateSketch>(
      [this, x = std::move(x),
       noise_seed](const CancelToken&) -> Result<PrivateSketch> {
        if (!sketcher_.has_value()) {
          return Status::FailedPrecondition(
              "serving-only engine (built via FromIndex) cannot sketch");
        }
        return sketcher_->Sketch(x, noise_seed);
      },
      request);
}

EngineFuture<PrivateSketch> Engine::SubmitSketch(std::vector<double> x,
                                                 uint64_t noise_seed,
                                                 int64_t deadline_ms) {
  return SubmitSketch(std::move(x), noise_seed, WithDeadline(deadline_ms));
}

EngineFuture<std::vector<SketchIndex::Neighbor>> Engine::SubmitQuery(
    PrivateSketch query, int64_t top_n, const RequestOptions& request) {
  return Submit<std::vector<SketchIndex::Neighbor>>(
      [this, query = std::move(query), top_n](const CancelToken& cancel)
          -> Result<std::vector<SketchIndex::Neighbor>> {
        if (cancel.Cancelled()) return Status::Cancelled(kCancelledBeforeScan);
        ReaderLock lock(index_mutex_);
        return index_.NearestNeighbors(query, top_n, pool_.get());
      },
      request);
}

EngineFuture<std::vector<SketchIndex::Neighbor>> Engine::SubmitQuery(
    PrivateSketch query, int64_t top_n, int64_t deadline_ms) {
  return SubmitQuery(std::move(query), top_n, WithDeadline(deadline_ms));
}

EngineFuture<std::vector<SketchIndex::Neighbor>> Engine::SubmitRangeQuery(
    PrivateSketch query, double radius_sq, const RequestOptions& request) {
  return Submit<std::vector<SketchIndex::Neighbor>>(
      [this, query = std::move(query), radius_sq](const CancelToken& cancel)
          -> Result<std::vector<SketchIndex::Neighbor>> {
        if (cancel.Cancelled()) return Status::Cancelled(kCancelledBeforeScan);
        ReaderLock lock(index_mutex_);
        return index_.RangeQuery(query, radius_sq, pool_.get());
      },
      request);
}

EngineFuture<std::vector<std::vector<SketchIndex::Neighbor>>>
Engine::SubmitQueryBatch(std::vector<PrivateSketch> queries, int64_t top_n,
                         const RequestOptions& request) {
  return Submit<std::vector<std::vector<SketchIndex::Neighbor>>>(
      [this, queries = std::move(queries), top_n](const CancelToken& cancel)
          -> Result<std::vector<std::vector<SketchIndex::Neighbor>>> {
        // One read-lock acquisition for the whole batch; probes fan across
        // the pool with the deterministic chunking. Each probe's scan runs
        // serially (no nested ParallelFor) — by the index's determinism
        // contract the result is byte-identical to the pool-parallel scan
        // a lone SubmitQuery performs. The cancel token is polled per
        // probe, so cancelling a large batch stops its remaining probes,
        // not just its queue admission.
        ReaderLock lock(index_mutex_);
        const int64_t n = static_cast<int64_t>(queries.size());
        std::vector<std::vector<SketchIndex::Neighbor>> results(queries.size());
        std::vector<Status> probe_status(queries.size());
        ThreadPool::Run(pool_.get(), 0, n, 1, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            const size_t slot = static_cast<size_t>(i);
            if (cancel.Cancelled()) {
              probe_status[slot] = Status::Cancelled(kCancelledBeforeScan);
              continue;
            }
            auto probe = index_.NearestNeighbors(queries[slot], top_n,
                                                 /*pool=*/nullptr);
            if (!probe.ok()) {
              probe_status[slot] = probe.status();
              continue;
            }
            results[slot] = std::move(*probe);
          }
        });
        for (const Status& status : probe_status) DPJL_RETURN_IF_ERROR(status);
        return results;
      },
      request);
}

EngineFuture<double> Engine::SubmitEstimate(std::string id_a, std::string id_b,
                                            const RequestOptions& request) {
  return Submit<double>(
      [this, id_a = std::move(id_a), id_b = std::move(id_b)](const CancelToken&) {
        return SquaredDistance(id_a, id_b);
      },
      request);
}

EngineFuture<double> Engine::SubmitEstimate(std::string id_a, std::string id_b,
                                            int64_t deadline_ms) {
  return SubmitEstimate(std::move(id_a), std::move(id_b),
                        WithDeadline(deadline_ms));
}

EngineFuture<bool> Engine::SubmitTask(std::function<Status()> task,
                                      const RequestOptions& request) {
  return Submit<bool>(
      [task = std::move(task)](const CancelToken&) -> Result<bool> {
        const Status status = task();
        if (!status.ok()) return status;
        return true;
      },
      request);
}

EngineFuture<bool> Engine::SubmitTask(std::function<Status()> task,
                                      int64_t deadline_ms) {
  return SubmitTask(std::move(task), WithDeadline(deadline_ms));
}

EngineFuture<bool> Engine::SubmitTask(
    std::function<Status(const CancelToken&)> task,
    const RequestOptions& request) {
  return Submit<bool>(
      [task = std::move(task)](const CancelToken& cancel) -> Result<bool> {
        const Status status = task(cancel);
        if (!status.ok()) return status;
        return true;
      },
      request);
}

EngineStats Engine::Stats() const {
  EngineStats stats;
  stats.queue = queue_->GetStats();
  stats.index_size = index_size();
  return stats;
}

void Engine::WaitIdle() const { queue_->WaitIdle(); }

std::string EngineStats::ToString() const {
  std::ostringstream out;
  for (int lane = 0; lane < kNumPriorityLanes; ++lane) {
    const auto& counters = queue.lanes[static_cast<size_t>(lane)];
    const std::string_view name = PriorityName(static_cast<Priority>(lane));
    out << "lane." << name << ".depth\t" << counters.depth << "\n"
        << "lane." << name << ".served\t" << counters.served << "\n"
        << "lane." << name << ".expired\t" << counters.expired << "\n"
        << "lane." << name << ".refused\t" << counters.refused << "\n"
        << "lane." << name << ".cancelled\t" << counters.cancelled << "\n"
        << "lane." << name << ".promoted\t" << counters.promoted << "\n";
  }
  out << "deadline_misses\t" << queue.deadline_misses << "\n";
  for (const auto& tenant : queue.tenant_usage) {
    out << "tenant." << tenant.first << ".usage\t" << tenant.second << "\n";
  }
  out << "index_size\t" << index_size << "\n";
  return out.str();
}

EngineStats EngineStats::Delta(const EngineStats& prev) const {
  // Monotonic counters become movement since `prev`; gauges (lane depth,
  // tenant usage, index size) keep their current point-in-time values.
  EngineStats delta = *this;
  for (int lane = 0; lane < kNumPriorityLanes; ++lane) {
    RequestQueue::LaneStats& now = delta.queue.lanes[static_cast<size_t>(lane)];
    const RequestQueue::LaneStats& then =
        prev.queue.lanes[static_cast<size_t>(lane)];
    now.served -= then.served;
    now.expired -= then.expired;
    now.refused -= then.refused;
    now.cancelled -= then.cancelled;
    now.promoted -= then.promoted;
  }
  delta.queue.deadline_misses -= prev.queue.deadline_misses;
  return delta;
}

}  // namespace dpjl
