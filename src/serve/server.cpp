#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "serve/client.hpp"

namespace volcal::serve {

namespace {

// Full write with EINTR retry; false once the peer is gone or the socket's
// send timeout (SO_SNDTIMEO, surfacing as EAGAIN) expired.  MSG_NOSIGNAL:
// a dead peer must surface as EPIPE here, not as a process-wide SIGPIPE —
// this runs inside servers, tests, and clients that have not installed the
// SIG_IGN disposition volcal_serve does.
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t wrote = ::send(fd, data, len, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
  return true;
}

void set_write_timeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool fill_sockaddr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    std::fprintf(stderr, "volcal_serve: socket path too long (%zu bytes, max %zu): %s\n",
                 path.size(), sizeof(addr->sun_path) - 1, path.c_str());
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

// One accepted connection: the fd, a write mutex (service workers write
// responses concurrently), and a closed flag.  Held via shared_ptr by the
// reader thread and by every in-flight completion callback, so the fd stays
// valid until the last response for this connection has been written.
struct SocketServer::Connection {
  int fd = -1;
  std::mutex write_mu;
  bool closed = false;

  void send(const std::vector<std::uint8_t>& bytes) {
    std::lock_guard lock(write_mu);
    if (closed) return;
    if (!write_all(fd, bytes.data(), bytes.size())) {
      // Peer gone or send timeout (a client that stopped reading): drop the
      // connection.  The shutdown wakes the reader so it reaps immediately;
      // later sends return without touching the socket, so one stuck client
      // costs each worker at most one timeout, never a wedge.
      closed = true;
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  void shutdown_both() {
    std::lock_guard lock(write_mu);
    closed = true;
    ::shutdown(fd, SHUT_RDWR);
  }

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

bool SocketServer::start(QueryService& service, const std::string& socket_path,
                         int write_timeout_ms) {
  sockaddr_un addr;
  if (!fill_sockaddr(socket_path, &addr)) return false;
  service_ = &service;
  path_ = socket_path;
  write_timeout_ms_ = write_timeout_ms;
  c_connections_total_ = service.metrics().counter("serve.connections_total");
  c_accept_retries_ = service.metrics().counter("serve.accept_retries");
  service.metrics().gauge_fn("serve.connections", [this] {
    return static_cast<std::int64_t>(connection_count());
  });
  ::unlink(socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("volcal_serve: socket");
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "volcal_serve: cannot bind %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    std::perror("volcal_serve: listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  return true;
}

void SocketServer::accept_loop(int listen_fd) {
  while (!stopped_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopped_.load(std::memory_order_acquire)) return;  // shut down by stop()
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource pressure is transient (fds free as dead connections
        // reap): keep the acceptor alive instead of silently refusing every
        // future client, but back off so the retry loop does not spin.
        c_accept_retries_->inc();
        std::fprintf(stderr, "volcal_serve: accept: %s (retrying)\n",
                     std::strerror(errno));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // genuinely fatal (EBADF/EINVAL outside shutdown is a bug)
    }
    set_write_timeout(fd, write_timeout_ms_);
    c_connections_total_->inc();
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::vector<std::thread> finished;
    {
      std::lock_guard lock(conns_mu_);
      if (stopped_.load(std::memory_order_acquire)) {
        return;  // raced with stop(): ~Connection closes the late fd
      }
      conns_.push_back(conn);
      readers_.emplace(conn.get(), std::thread([this, conn] { reader_loop(conn); }));
      finished.swap(finished_readers_);
    }
    // Join readers of already-disconnected clients (they have exited; the
    // join is immediate) so thread objects do not pile up until stop().
    for (std::thread& t : finished) t.join();
  }
}

void SocketServer::reader_loop(std::shared_ptr<Connection> conn) {
  FrameReader reader;
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t got = ::read(conn->fd, buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF or error: client went away
    reader.feed(buf, static_cast<std::size_t>(got));
    Frame frame;
    while (reader.next(&frame)) {
      if (frame.type == FrameType::StatsRequest) {
        // Answered here, on the reader thread: a stats poll never enters the
        // admission queue, so it cannot displace (or be shed like) a query.
        conn->send(encode_stats(frame.stats_request.request_id,
                                service_->stats_json()));
        continue;
      }
      if (frame.type == FrameType::Update) {
        // Also answered on the reader thread: apply_mutations serializes on
        // the service's target mutex and must not ride the admission queue —
        // an update shed under load would silently fork the client's view of
        // the graph.  In-flight query waves keep running against the old
        // target while this blocks; only this connection's reader waits.
        const MutationOutcome mo = service_->apply_mutations(frame.update.batch);
        UpdateResultFrame uf;
        uf.request_id = frame.update.request_id;
        uf.status = mo.ok ? UpdateStatus::Ok : UpdateStatus::Invalid;
        uf.cache_evicted = mo.cache_evicted;
        uf.cache_retained = mo.cache_retained;
        uf.apply_ns = mo.apply_ns;
        conn->send(encode_update_result(uf));
        continue;
      }
      if (frame.type != FrameType::Query) continue;  // queries, stats, updates only
      const QueryFrame q = frame.query;
      const Admission adm = service_->submit(
          q.request_id, q.node, [conn](const QueryResult& r) {
            ResultFrame rf;
            rf.request_id = r.request_id;
            rf.status = r.status;
            rf.node = r.node;
            rf.label = r.label;
            rf.volume = r.volume;
            rf.distance = r.distance;
            rf.queries = r.queries;
            rf.latency_ns = r.latency_ns;
            conn->send(encode_result(rf));
          });
      if (adm != Admission::Accepted) {
        ShedFrame sf;
        sf.request_id = q.request_id;
        // retry_after_ms == 0 tells the client the service is draining for
        // good; a transient full queue advertises kRetryAfterMs.
        sf.retry_after_ms = adm == Admission::Shed ? kRetryAfterMs : 0;
        conn->send(encode_shed(sf));
      }
    }
    if (reader.corrupt()) break;  // no resync in a length-prefixed stream
  }
  conn->shutdown_both();
  // Reap: drop the server's handle (the fd closes when the last in-flight
  // response releases its shared_ptr) and park this thread's object for the
  // accept loop / stop() to join — a disconnected client must not hold an
  // fd slot or a thread object for the server's lifetime.
  std::lock_guard lock(conns_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;  // stop() owns cleanup
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  auto it = readers_.find(conn.get());
  if (it != readers_.end()) {
    finished_readers_.push_back(std::move(it->second));
    readers_.erase(it);
  }
}

void SocketServer::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Shutting the listening socket down fails the blocking accept() and ends
  // the acceptor, which holds its own copy of the fd.  The fd is closed only
  // after the join, so its number cannot be reused while accept() may still
  // be called on it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (service_ != nullptr) {
    // Replace the connection-count callback with a constant: a snapshot
    // taken after the transport is gone must not call into a dead server.
    service_->metrics().gauge_fn("serve.connections",
                                 [] { return std::int64_t{0}; });
  }
  std::vector<std::shared_ptr<Connection>> conns;
  std::unordered_map<const Connection*, std::thread> readers;
  std::vector<std::thread> finished;
  {
    std::lock_guard lock(conns_mu_);
    conns.swap(conns_);
    readers.swap(readers_);
    finished.swap(finished_readers_);
  }
  for (auto& conn : conns) {
    conn->send(encode_bye(ByeFrame{0}));
    conn->shutdown_both();
  }
  for (auto& [_, t] : readers) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::size_t SocketServer::connection_count() const {
  std::lock_guard lock(conns_mu_);
  return conns_.size();
}

SocketServer::~SocketServer() { stop(); }

bool ServeClient::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr;
  if (!fill_sockaddr(socket_path, &addr)) return false;
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  reader_ = FrameReader();
  return true;
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::send(const std::vector<std::uint8_t>& bytes) {
  return fd_ >= 0 && write_all(fd_, bytes.data(), bytes.size());
}

bool ServeClient::read_some() {
  if (fd_ < 0) return false;
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t got = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (got > 0) {
      reader_.feed(buf, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < sizeof buf) return true;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool ServeClient::next(Frame* out) {
  if (reader_.next(out)) return true;
  if (reader_.corrupt() && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  return false;
}

// The blocking read under the synchronous calls is the pipelined one plus a
// poll with no deadline.  After EOF the frames already read still come out.
bool ServeClient::recv_frame(Frame* out) {
  while (!next(out)) {
    pollfd pfd{fd_, POLLIN, 0};
    if (fd_ < 0 || (::poll(&pfd, 1, -1) < 0 && errno != EINTR)) return false;
    if (!read_some()) return next(out);
  }
  return true;
}

}  // namespace volcal::serve
