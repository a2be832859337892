#include "src/net/server.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "src/core/sketch.h"

namespace dpjl {
namespace net {

namespace {

/// One error-frame payload per failure path: Dispatch never drops a
/// request on the floor — malformed payloads, engine refusals and
/// computation failures all travel back as a typed Status.
std::pair<MessageType, std::string> ErrorFrame(const Status& status) {
  return {MessageType::kErrorResponse, EncodeErrorStatus(status)};
}

}  // namespace

Server::Server(Engine* engine, std::string host)
    : engine_(engine), host_(std::move(host)) {}

Result<std::unique_ptr<Server>> Server::Start(Engine* engine,
                                              const ServerOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("Server::Start requires an engine");
  }
  std::unique_ptr<Server> server(new Server(engine, options.host));
  DPJL_ASSIGN_OR_RETURN(
      server->listener_,
      ListenOn(options.host, options.port, &server->port_));
  server->acceptor_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Shutdown wakes the thread blocked in accept() / recv() immediately,
    // where a bare close can leave it blocked. The listener is closed only
    // once the accept loop, which reads its descriptor unlocked, is joined.
    listener_.ShutdownBoth();
    for (Connection& connection : connections_) {
      if (!connection.finished) connection.socket.ShutdownBoth();
    }
    stop_cv_.NotifyAll();
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // The accept loop is down, so connections_ can no longer grow.
  std::list<Connection> connections;
  {
    MutexLock lock(mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.reader.join();
}

void Server::AcceptLoop() {
  // Back-off after a transient accept() failure: 1 ms, doubling to 100 ms.
  constexpr int64_t kMaxBackoffMs = 100;
  int64_t backoff_ms = 0;
  while (true) {
    Result<Socket> accepted = AcceptConnection(listener_);
    std::list<Connection> finished;
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      for (auto it = connections_.begin(); it != connections_.end();) {
        const auto next = std::next(it);
        if (it->finished) finished.splice(finished.end(), connections_, it);
        it = next;
      }
      if (accepted.ok()) {
        backoff_ms = 0;
        Connection& connection =
            connections_.emplace_back(std::move(*accepted));
        connection.reader = std::thread([this, c = &connection] {
          ServeConnection(&c->socket);
          MutexLock reader_lock(mutex_);
          c->socket.Close();
          c->finished = true;
        });
      } else if (accepted.status().code() != StatusCode::kResourceExhausted) {
        // The listener is closed or broken; Stop joins what is left.
        connections_.splice(connections_.end(), finished);
        return;
      }
    }
    // Finished readers have closed their sockets; joining them only
    // releases their threads.
    for (Connection& connection : finished) connection.reader.join();
    if (!accepted.ok()) {
      // The pending connection stays in the backlog: wait for readers to
      // free descriptors rather than spin on accept(). Stop cuts the wait
      // short, and the next accept() then fails on the closed listener.
      backoff_ms = std::min(kMaxBackoffMs, std::max<int64_t>(1, 2 * backoff_ms));
      MutexLock lock(mutex_);
      if (!stopping_) {
        stop_cv_.WaitFor(mutex_, std::chrono::milliseconds(backoff_ms));
      }
    }
  }
}

void Server::ServeConnection(Socket* connection) {
  while (true) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
    }
    // Only this thread reads/writes the socket; Stop only calls
    // ShutdownBoth on it (safe concurrently with a blocked recv).
    Result<Frame> received = RecvFrame(*connection);
    if (!received.ok()) {
      if (received.status().code() == StatusCode::kUnavailable) {
        return;  // peer hung up (or Stop shut us down) — normal end
      }
      // Malformed bytes: report once, then drop the connection — after a
      // framing error the stream position is unrecoverable.
      auto [type, payload] = ErrorFrame(received.status());
      FrameHeader header;
      header.type = type;
      // Best-effort courtesy reply on a connection we are about to drop;
      // a send failure here changes nothing, so the drop is logged, not
      // propagated.
      LogIfError(SendFrame(*connection, header, payload),
                 "server: error-reply send during connection teardown");
      connection->ShutdownBoth();
      return;
    }
    auto [type, payload] = Dispatch(*received);
    FrameHeader header;
    header.type = type;
    if (!SendFrame(*connection, header, payload).ok()) {
      return;
    }
  }
}

std::pair<MessageType, std::string> Server::Dispatch(const Frame& frame) {
  const RequestOptions request = frame.header.ToRequestOptions();
  switch (frame.header.type) {
    case MessageType::kNearestNeighborsRequest: {
      Result<NearestNeighborsRequest> req =
          DecodeNearestNeighborsRequest(frame.payload);
      if (!req.ok()) return ErrorFrame(req.status());
      Result<PrivateSketch> sketch = PrivateSketch::Deserialize(req->sketch);
      if (!sketch.ok()) return ErrorFrame(sketch.status());
      Result<std::vector<SketchIndex::Neighbor>> neighbors =
          engine_->SubmitQuery(std::move(*sketch), req->top_n, request).Get();
      if (!neighbors.ok()) return ErrorFrame(neighbors.status());
      return {MessageType::kNeighborsResponse, EncodeNeighbors(*neighbors)};
    }
    case MessageType::kRangeQueryRequest: {
      Result<RangeQueryRequest> req = DecodeRangeQueryRequest(frame.payload);
      if (!req.ok()) return ErrorFrame(req.status());
      Result<PrivateSketch> sketch = PrivateSketch::Deserialize(req->sketch);
      if (!sketch.ok()) return ErrorFrame(sketch.status());
      Result<std::vector<SketchIndex::Neighbor>> neighbors =
          engine_->SubmitRangeQuery(std::move(*sketch), req->radius_sq, request)
              .Get();
      if (!neighbors.ok()) return ErrorFrame(neighbors.status());
      return {MessageType::kNeighborsResponse, EncodeNeighbors(*neighbors)};
    }
    case MessageType::kSquaredDistanceRequest: {
      Result<SquaredDistanceRequest> req =
          DecodeSquaredDistanceRequest(frame.payload);
      if (!req.ok()) return ErrorFrame(req.status());
      Result<double> distance =
          engine_->SubmitEstimate(req->id_a, req->id_b, request).Get();
      if (!distance.ok()) return ErrorFrame(distance.status());
      return {MessageType::kDistanceResponse, EncodeDistance(*distance)};
    }
    case MessageType::kBatchQueryRequest: {
      Result<BatchQueryRequest> req = DecodeBatchQueryRequest(frame.payload);
      if (!req.ok()) return ErrorFrame(req.status());
      std::vector<PrivateSketch> probes;
      probes.reserve(req->sketches.size());
      for (const std::string& bytes : req->sketches) {
        Result<PrivateSketch> sketch = PrivateSketch::Deserialize(bytes);
        if (!sketch.ok()) return ErrorFrame(sketch.status());
        probes.push_back(std::move(*sketch));
      }
      Result<std::vector<std::vector<SketchIndex::Neighbor>>> lists =
          engine_->SubmitQueryBatch(std::move(probes), req->top_n, request)
              .Get();
      if (!lists.ok()) return ErrorFrame(lists.status());
      return {MessageType::kBatchNeighborsResponse,
              EncodeBatchNeighbors(*lists)};
    }
    case MessageType::kInsertRequest: {
      Result<InsertRequest> req = DecodeInsertRequest(frame.payload);
      if (!req.ok()) return ErrorFrame(req.status());
      Result<PrivateSketch> sketch = PrivateSketch::Deserialize(req->sketch);
      if (!sketch.ok()) return ErrorFrame(sketch.status());
      // Through SubmitTask so inserts obey the same lane/deadline/tenant
      // admission as every other remote request.
      Result<bool> done =
          engine_
              ->SubmitTask(
                  [this, id = std::move(req->id),
                   sketch = std::move(*sketch)]() mutable {
                    return engine_->Insert(std::move(id), std::move(sketch));
                  },
                  request)
              .Get();
      if (!done.ok()) return ErrorFrame(done.status());
      return {MessageType::kAckResponse, std::string()};
    }
    case MessageType::kStatsRequest: {
      // Stats is the monitoring path: served directly (cheap, lock-light)
      // so it works even when the lanes are saturated.
      return {MessageType::kStatsResponse, engine_->Stats().ToString()};
    }
    case MessageType::kGetSketchRequest: {
      Result<std::string> id = DecodeIdPayload(frame.payload);
      if (!id.ok()) return ErrorFrame(id.status());
      Result<PrivateSketch> sketch = engine_->GetSketch(*id);
      if (!sketch.ok()) return ErrorFrame(sketch.status());
      return {MessageType::kSketchResponse, sketch->Serialize()};
    }
    case MessageType::kPingRequest:
      return {MessageType::kPingResponse, std::string()};
    default:
      return ErrorFrame(Status::InvalidArgument(
          "frame type '" + std::string(MessageTypeName(frame.header.type)) +
          "' is not a request"));
  }
}

}  // namespace net
}  // namespace dpjl
