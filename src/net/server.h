#ifndef DPJL_NET_SERVER_H_
#define DPJL_NET_SERVER_H_

#include <list>
#include <memory>
#include <string>
#include <thread>

#include "src/common/annotated_mutex.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace dpjl {
namespace net {

/// Server configuration. The defaults bind an ephemeral loopback port —
/// the shape every test and the tool's `serve` subcommand use, with the
/// resolved port printed for the client/router to pick up.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the resolved one.
  int port = 0;
};

/// Blocking-socket serving front over an `Engine`: one accept loop, one
/// reader thread per live connection. A connection's reader closes its
/// socket when the peer hangs up, and the accept loop joins finished
/// readers before it adds the next connection, so a long-lived server
/// holds the descriptors and threads of its live connections only. When
/// accept() fails transiently (out of descriptors, an aborted handshake, a
/// signal) the loop backs off and retries; the pending connection waits in
/// the listen backlog. Each reader decodes request frames and
/// feeds the engine's Submit* lanes with the RequestOptions carried in the
/// frame header (priority, tenant, deadline), waits on the future, and
/// writes the typed response — or a kErrorResponse frame carrying the
/// failure Status, so the engine's whole error model (deadline misses,
/// quota/rate refusals, cancellations, kNotFound) crosses the wire intact.
///
/// Responses on one connection are answered in request order (the reader
/// blocks per request); concurrency comes from many connections — each
/// client pool checkout is its own connection — which the engine's lanes
/// schedule against each other exactly like in-process submitters.
///
/// The server does not own the engine: whoever built the engine (and
/// attached its partitions) keeps it alive for the server's lifetime.
///
/// Thread safety: Start/Stop/port are safe from any thread; Stop is
/// idempotent and joins every connection thread before returning.
class Server {
 public:
  /// Binds, listens, and starts the accept loop. `engine` must outlive the
  /// returned server.
  static Result<std::unique_ptr<Server>> Start(Engine* engine,
                                               const ServerOptions& options);

  /// Stops accepting, shuts down every live connection, joins all threads.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The resolved listening port (the ephemeral pick when options.port
  /// was 0).
  int port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Idempotent shutdown: shuts the listener down (unblocking the accept
  /// loop) and half-closes every live connection (unblocking its reader),
  /// joins all threads, then closes the listener.
  void Stop();

 private:
  Server(Engine* engine, std::string host);

  /// One accepted connection. `reader` serves `socket` until the peer
  /// hangs up or Stop shuts it down, then closes it and sets `finished`
  /// (under mutex_).
  struct Connection {
    explicit Connection(Socket accepted) : socket(std::move(accepted)) {}
    Socket socket;
    std::thread reader;
    bool finished = false;
  };

  void AcceptLoop();
  void ServeConnection(Socket* connection);

  /// Decodes `frame`, runs it through the engine, and returns the response
  /// frame to send (type + payload). Any failure becomes a kErrorResponse.
  std::pair<MessageType, std::string> Dispatch(const Frame& frame);

  Engine* const engine_;
  const std::string host_;
  int port_ = 0;
  Socket listener_;
  std::thread acceptor_;

  Mutex mutex_;
  /// Wakes the accept loop's back-off when Stop begins.
  CondVar stop_cv_;
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// Connections whose readers have not been joined yet, in a list so
  /// each reader's Connection* stays valid while the accept loop adds and
  /// removes others. Stop additionally calls ShutdownBoth on each live
  /// socket while its reader may be blocked in recv — that pairing is the
  /// one deliberate cross-thread socket touch, and it is lock-protected
  /// here while readers hold only their stable Socket*.
  std::list<Connection> connections_ GUARDED_BY(mutex_);
};

}  // namespace net
}  // namespace dpjl

#endif  // DPJL_NET_SERVER_H_
