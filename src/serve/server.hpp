// SocketServer — the transport in front of QueryService: a Unix-domain
// stream socket speaking the length-prefixed frame protocol
// (serve/protocol.hpp).
//
// One accept thread plus one reader thread per connection.  Queries are
// submitted to the service as they decode; completion callbacks run on
// service worker threads and write Result frames under the connection's
// write mutex (responses interleave across requests — the request_id is the
// correlation key).  Shed/Stopped admissions answer immediately with a Shed
// frame (retry_after_ms == 0 when the service is draining for good).
//
// Lifecycle of a connection: when the client disconnects, its reader thread
// reaps the connection immediately — it drops the server's handle (the fd
// closes once the last in-flight response releases its shared_ptr) and
// parks its own thread object for an opportunistic join — so a long-running
// server's fd/thread footprint tracks *live* clients, not total ever
// accepted.  The accept loop survives transient failures (ECONNABORTED,
// and EMFILE/ENFILE/ENOBUFS fd pressure, retried after a short sleep); it
// exits only when stop() closes the listening socket.
//
// Writes carry a send timeout (SO_SNDTIMEO): a client that submits queries
// but never reads its responses fills its socket buffer, times the next
// write out, and gets its connection dropped — it cannot wedge a service
// worker inside a completion callback or block graceful drain.
//
// Observability: a StatsRequest frame is answered directly on the reader
// thread with a Stats frame carrying service_->stats_json() — it never
// enters the admission queue, so polling a loaded server cannot displace a
// query or be shed.  The server registers its own metrics in the service's
// registry at start(): the "serve.connections" live gauge, and the
// "serve.connections_total" / "serve.accept_retries" counters (accepts
// survived and transient accept failures retried) — one Stats snapshot
// covers transport and service together.  Declare the server after the
// service (the usual pattern) so the registered callback never outlives the
// registry.
//
// Shutdown: stop() closes the listening socket, shuts down every live
// connection (reader threads see EOF), and joins them.  The caller drains
// the service first — the callbacks of accepted requests hold connection
// handles via shared_ptr, so a connection's fd outlives every response that
// still has to be written through it.
//
// The matching client is ServeClient (serve/client.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/query_service.hpp"

namespace volcal::serve {

class SocketServer {
 public:
  // Binds and listens on `socket_path` (an existing file at the path is
  // unlinked first — serve sockets are owned by their server).  Returns
  // false with a message on stderr if the socket cannot be set up.
  // `write_timeout_ms` bounds how long a response write may block on a
  // client that stopped reading before the connection is dropped (<= 0
  // disables the timeout; tests use small values).
  bool start(QueryService& service, const std::string& socket_path,
             int write_timeout_ms = 5000);

  // Stops accepting, closes every connection, joins all threads.  Drain the
  // service before calling (accepted requests must have answered).
  void stop();

  ~SocketServer();

  const std::string& socket_path() const { return path_; }

  // Live (not yet reaped) connections — introspection for tests.
  std::size_t connection_count() const;

 private:
  struct Connection;

  void accept_loop(int listen_fd);
  void reader_loop(std::shared_ptr<Connection> conn);

  QueryService* service_ = nullptr;
  obs::Counter* c_connections_total_ = nullptr;
  obs::Counter* c_accept_retries_ = nullptr;
  std::string path_;
  int listen_fd_ = -1;
  int write_timeout_ms_ = 5000;
  std::thread acceptor_;
  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  // Reader threads of live connections, keyed by their connection; a reader
  // that sees its client disconnect moves its own entry to finished_readers_
  // (it cannot join itself), which the accept loop and stop() drain.
  std::unordered_map<const Connection*, std::thread> readers_;
  std::vector<std::thread> finished_readers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace volcal::serve
