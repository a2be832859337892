#include "src/net/router.h"

#include <set>
#include <utility>

#include "src/core/estimators.h"

namespace dpjl {
namespace net {

Result<Endpoint> ParseEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    return Status::InvalidArgument("bad endpoint '" + text +
                                   "' (expected host:port)");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad endpoint port in '" + text + "'");
    }
  }
  if (port_text.size() > 5) {
    return Status::InvalidArgument("bad endpoint port in '" + text + "'");
  }
  endpoint.port = std::stoi(port_text);
  if (endpoint.port < 1 || endpoint.port > 65535) {
    return Status::InvalidArgument("endpoint port in '" + text +
                                   "' must lie in [1, 65535]");
  }
  return endpoint;
}

bool Router::RangesOrdered(const ShardManifest& manifest) {
  const ShardManifest::Partition* prev = nullptr;
  for (const ShardManifest::Partition& partition : manifest.partitions) {
    if (partition.count == 0) continue;
    if (partition.last_id < partition.first_id) return false;
    if (prev != nullptr && !(prev->last_id < partition.first_id)) return false;
    prev = &partition;
  }
  return prev != nullptr;  // all-empty manifests gain nothing from routing
}

int64_t Router::GroupForId(const std::string& id) const {
  for (size_t i = 0; i < manifest_.partitions.size(); ++i) {
    const ShardManifest::Partition& partition = manifest_.partitions[i];
    if (partition.count == 0) continue;
    if (partition.first_id <= id && id <= partition.last_id) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

Router::Router(ShardManifest manifest,
               std::vector<std::vector<Endpoint>> replica_groups,
               ClientOptions client_options)
    : manifest_(std::move(manifest)),
      replica_groups_(std::move(replica_groups)),
      client_options_(client_options),
      range_routed_(RangesOrdered(manifest_)) {
  cursors_.reserve(replica_groups_.size());
  for (size_t i = 0; i < replica_groups_.size(); ++i) {
    cursors_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
}

Result<std::unique_ptr<Router>> Router::Create(
    ShardManifest manifest, std::vector<std::vector<Endpoint>> replica_groups,
    ClientOptions client_options) {
  if (replica_groups.size() != manifest.partitions.size()) {
    return Status::InvalidArgument(
        "router needs one replica group per manifest partition (got " +
        std::to_string(replica_groups.size()) + " groups for " +
        std::to_string(manifest.partitions.size()) + " partitions)");
  }
  for (size_t i = 0; i < replica_groups.size(); ++i) {
    if (manifest.partitions[i].count > 0 && replica_groups[i].empty()) {
      return Status::InvalidArgument(
          "replica group " + std::to_string(i) +
          " is empty but its partition holds " +
          std::to_string(manifest.partitions[i].count) + " sketches");
    }
    for (const Endpoint& endpoint : replica_groups[i]) {
      if (endpoint.host.empty() || endpoint.port < 1 ||
          endpoint.port > 65535) {
        return Status::InvalidArgument("bad endpoint '" + endpoint.ToString() +
                                       "' in replica group " +
                                       std::to_string(i));
      }
    }
  }
  return std::unique_ptr<Router>(new Router(
      std::move(manifest), std::move(replica_groups), client_options));
}

Client* Router::ClientFor(const Endpoint& endpoint) {
  const std::string key = endpoint.ToString();
  MutexLock lock(clients_mutex_);
  std::unique_ptr<Client>& slot = clients_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Client>(endpoint.host, endpoint.port,
                                    client_options_);
  }
  return slot.get();
}

template <typename T>
Result<T> Router::CallGroup(size_t group,
                            const std::function<Result<T>(Client*)>& call) {
  const std::vector<Endpoint>& replicas = replica_groups_[group];
  const uint64_t start =
      cursors_[group]->fetch_add(1, std::memory_order_relaxed);
  Status last = Status::Unavailable("replica group " + std::to_string(group) +
                                    " has no replicas");
  for (size_t r = 0; r < replicas.size(); ++r) {
    const Endpoint& endpoint =
        replicas[(start + r) % replicas.size()];
    Result<T> result = call(ClientFor(endpoint));
    if (result.ok() ||
        result.status().code() != StatusCode::kUnavailable) {
      return result;
    }
    last = Status::Unavailable("replica " + endpoint.ToString() + ": " +
                               result.status().message());
  }
  return last;
}

template <typename T>
Result<std::vector<T>> Router::FanOut(
    const std::function<Result<T>(Client*)>& call) {
  std::vector<bool> covered(replica_groups_.size(), false);
  std::set<std::string> dead;  // endpoints observed kUnavailable this call
  std::vector<T> answers;
  for (size_t group = 0; group < replica_groups_.size(); ++group) {
    if (covered[group] || manifest_.partitions[group].count == 0) continue;
    const std::vector<Endpoint>& replicas = replica_groups_[group];
    const uint64_t start =
        cursors_[group]->fetch_add(1, std::memory_order_relaxed);
    Status last = Status::Unavailable(
        "replica group " + std::to_string(group) + " has no replicas");
    bool served = false;
    for (size_t r = 0; r < replicas.size() && !served; ++r) {
      const Endpoint& endpoint = replicas[(start + r) % replicas.size()];
      if (dead.count(endpoint.ToString()) > 0) continue;
      Result<T> answer = call(ClientFor(endpoint));
      if (answer.ok()) {
        answers.push_back(std::move(*answer));
        // This endpoint's engine answered over every partition it serves:
        // mark all groups listing it as covered, so none of them is asked
        // again (duplicate coverage is merged away, but skipping the call
        // is both faster and the exact-cover common case).
        for (size_t other = 0; other < replica_groups_.size(); ++other) {
          for (const Endpoint& peer : replica_groups_[other]) {
            if (peer.host == endpoint.host && peer.port == endpoint.port) {
              covered[other] = true;
              break;
            }
          }
        }
        served = true;
      } else if (answer.status().code() == StatusCode::kUnavailable) {
        dead.insert(endpoint.ToString());
        last = Status::Unavailable("replica " + endpoint.ToString() + ": " +
                                   answer.status().message());
      } else {
        return answer.status();
      }
    }
    if (!served) return last;
  }
  return answers;
}

Result<std::vector<SketchIndex::Neighbor>> Router::NearestNeighbors(
    const PrivateSketch& query, int64_t top_n, const RequestOptions& request) {
  DPJL_ASSIGN_OR_RETURN(
      std::vector<std::vector<SketchIndex::Neighbor>> parts,
      FanOut<std::vector<SketchIndex::Neighbor>>(
          [&](Client* client) {
            return client->NearestNeighbors(query, top_n, request);
          }));
  return SketchIndex::MergeNeighbors(std::move(parts), top_n);
}

Result<std::vector<SketchIndex::Neighbor>> Router::RangeQuery(
    const PrivateSketch& query, double radius_sq,
    const RequestOptions& request) {
  DPJL_ASSIGN_OR_RETURN(
      std::vector<std::vector<SketchIndex::Neighbor>> parts,
      FanOut<std::vector<SketchIndex::Neighbor>>(
          [&](Client* client) {
            return client->RangeQuery(query, radius_sq, request);
          }));
  return SketchIndex::MergeNeighbors(std::move(parts), -1);
}

Result<std::vector<std::vector<SketchIndex::Neighbor>>> Router::BatchQuery(
    const std::vector<PrivateSketch>& queries, int64_t top_n,
    const RequestOptions& request) {
  using Lists = std::vector<std::vector<SketchIndex::Neighbor>>;
  DPJL_ASSIGN_OR_RETURN(std::vector<Lists> parts,
                        FanOut<Lists>([&](Client* client) {
                          return client->BatchQuery(queries, top_n, request);
                        }));
  Lists merged(queries.size());
  for (size_t probe = 0; probe < queries.size(); ++probe) {
    std::vector<std::vector<SketchIndex::Neighbor>> per_probe;
    per_probe.reserve(parts.size());
    for (Lists& part : parts) {
      if (part.size() != queries.size()) {
        return Status::DataLoss(
            "shard answered " + std::to_string(part.size()) +
            " probe results for a batch of " + std::to_string(queries.size()));
      }
      per_probe.push_back(std::move(part[probe]));
    }
    merged[probe] =
        SketchIndex::MergeNeighbors(std::move(per_probe), top_n);
  }
  return merged;
}

Result<PrivateSketch> Router::GetSketch(const std::string& id,
                                        const RequestOptions& request) {
  // The manifest's first/last ids are insertion-order bounds, so the group
  // whose range contains `id` lexicographically is only a guess ("doc201"
  // sorts between "doc1024" and "doc2047" yet lives in the first of four
  // 1024-row partitions). Ask it first; when it does not hold the id, or
  // no range contains it, scatter.
  if (range_routed_) {
    const int64_t group = GroupForId(id);
    if (group >= 0) {
      Result<PrivateSketch> routed = CallGroup<PrivateSketch>(
          static_cast<size_t>(group),
          [&](Client* client) { return client->GetSketch(id, request); });
      if (routed.ok() || routed.status().code() != StatusCode::kNotFound) {
        return routed;
      }
    }
  }
  // Conservative scatter. A shard that does not hold the id answers
  // kNotFound, which the fan-out must treat as "keep looking", not as
  // failure — hence the shared_ptr envelope.
  DPJL_ASSIGN_OR_RETURN(
      const std::vector<std::shared_ptr<PrivateSketch>> found,
      FanOut<std::shared_ptr<PrivateSketch>>(
          [&](Client* client) -> Result<std::shared_ptr<PrivateSketch>> {
            Result<PrivateSketch> sketch = client->GetSketch(id, request);
            if (sketch.ok()) {
              return std::make_shared<PrivateSketch>(std::move(*sketch));
            }
            if (sketch.status().code() == StatusCode::kNotFound) {
              return std::shared_ptr<PrivateSketch>();
            }
            return sketch.status();
          }));
  for (const std::shared_ptr<PrivateSketch>& sketch : found) {
    if (sketch != nullptr) return *sketch;
  }
  return Status::NotFound("id '" + id + "' is not stored on any shard");
}

Result<double> Router::SquaredDistance(const std::string& id_a,
                                       const std::string& id_b,
                                       const RequestOptions& request) {
  if (range_routed_) {
    const int64_t group_a = GroupForId(id_a);
    const int64_t group_b = GroupForId(id_b);
    if (group_a >= 0 && group_a == group_b) {
      // Apparently colocated ids: one RPC, estimated where the sketches
      // live. kNotFound means the range guess was wrong (see GetSketch).
      Result<double> colocated = CallGroup<double>(
          static_cast<size_t>(group_a), [&](Client* client) {
            return client->SquaredDistance(id_a, id_b, request);
          });
      if (colocated.ok() ||
          colocated.status().code() != StatusCode::kNotFound) {
        return colocated;
      }
    }
  }
  // Cross-shard (or unrouted): fetch both sketches from wherever they
  // live and estimate locally — the estimator is deterministic, so this
  // equals the colocated answer bit for bit.
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch a, GetSketch(id_a, request));
  DPJL_ASSIGN_OR_RETURN(const PrivateSketch b, GetSketch(id_b, request));
  return EstimateSquaredDistance(a, b);
}

Result<std::string> Router::Stats(const RequestOptions& request) {
  std::set<std::string> seen;
  std::string out;
  for (size_t group = 0; group < replica_groups_.size(); ++group) {
    for (const Endpoint& endpoint : replica_groups_[group]) {
      if (!seen.insert(endpoint.ToString()).second) continue;
      out += "== " + endpoint.ToString() + " ==\n";
      Result<std::string> stats = ClientFor(endpoint)->Stats(request);
      out += stats.ok() ? *stats : stats.status().ToString() + "\n";
    }
  }
  return out;
}

}  // namespace net
}  // namespace dpjl
