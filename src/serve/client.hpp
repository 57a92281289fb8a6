// ServeClient — the client side of one volcal_serve connection.  It owns the
// socket and the frame decoder; each synchronous call sends one request and
// returns the matching typed reply.
//
//   ServeClient client;
//   client.connect(path);
//   auto q = client.query(7);                 // Result or Shed, typed
//   std::string json;
//   client.stats(&json);                      // the live metrics snapshot
//   auto u = client.update(batch);            // apply a MutationBatch
//   client.bye();                             // done
//
// Two usage modes, per connection, from one thread (not thread-safe):
//
//   * Synchronous (query/stats/update): one request in flight; the call
//     blocks until its own reply arrives.  Request ids come from a private
//     counter tagged with bit 63, so they never collide with pipelined ids.
//   * Pipelined (post_query + fd/read_some/next): the load generator posts
//     queries as they fall due, waits on fd() with its own poll deadline,
//     drains the socket with read_some() and pops frames with next(),
//     correlating request ids itself.
//
// A synchronous call skips stray frames and fails on a Bye frame (server
// draining).  Every `ok == false` reply means the connection is no longer
// usable — the server is gone, draining, or the stream corrupted — and the
// caller should close().  The out-of-line members live in serve/server.cpp,
// next to the socket helpers they share with the server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace volcal::serve {

class ServeClient {
 public:
  // One answered query.  `ok == false`: transport failure / server draining.
  // `shed == true`: the service shed the request (retry_after_ms == 0 means
  // draining for good); `result` is meaningful only when ok && !shed.
  struct QueryReply {
    bool ok = false;
    bool shed = false;
    std::uint32_t retry_after_ms = 0;
    ResultFrame result;
  };

  // One answered update.  `ok == false`: transport failure; `result.status`
  // distinguishes an applied batch from one the service rejected.
  struct UpdateReply {
    bool ok = false;
    UpdateResultFrame result;
  };

  ServeClient() = default;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient() { close(); }

  bool connect(const std::string& socket_path);
  void close();

  // --- synchronous calls: one request, one matched reply -------------------

  QueryReply query(std::int64_t node) {
    QueryReply out;
    const std::uint64_t id = next_id();
    out.ok = call(encode_query({id, node}), [&](Frame& f) {
      if (f.type == FrameType::Result && f.result.request_id == id) {
        out.result = f.result;
        return true;
      }
      if (f.type != FrameType::Shed || f.shed.request_id != id) return false;
      out.shed = true;
      out.retry_after_ms = f.shed.retry_after_ms;
      return true;
    });
    return out;
  }

  // Fetches the live metrics snapshot (the Stats frame payload) into *json.
  bool stats(std::string* json) {
    const std::uint64_t id = next_id();
    return call(encode_stats_request(id), [&](Frame& f) {
      if (f.type != FrameType::Stats || f.stats.request_id != id) return false;
      *json = std::move(f.stats.json);
      return true;
    });
  }

  // Applies one MutationBatch server-side (QueryService::apply_mutations)
  // and returns the typed outcome.  Throws std::length_error if the batch
  // exceeds the protocol's update-frame bound.
  UpdateReply update(const MutationBatch& batch) {
    UpdateReply out;
    const std::uint64_t id = next_id();
    out.ok = call(encode_update({id, batch}), [&](Frame& f) {
      if (f.type != FrameType::UpdateResult || f.update_result.request_id != id) return false;
      out.result = f.update_result;
      return true;
    });
    return out;
  }

  // Ends the conversation.  The protocol has no client-side farewell frame —
  // the server's reader treats EOF as the goodbye — so this just closes.
  void bye() { close(); }

  // --- pipelined primitives: many requests in flight -----------------------

  // Fire-and-forget query with a caller-chosen id.  Keep caller ids below
  // the top bit (bit 63 tags the synchronous counter above).
  bool post_query(std::uint64_t request_id, std::int64_t node) {
    return send(encode_query({request_id, node}));
  }

  // The socket, for the caller's poll: readable means read_some() has bytes.
  int fd() const { return fd_; }

  // Reads whatever has arrived, without blocking.  False on EOF, an error,
  // or a closed connection.
  bool read_some();

  // Pops the next complete frame read_some() buffered; false when none is.
  // A corrupt stream cannot resync, so it shuts the socket down: the
  // caller's poll wakes at once and read_some() reports EOF.
  bool next(Frame* out);

 private:
  std::uint64_t next_id() { return (std::uint64_t{1} << 63) | next_seq_++; }
  bool send(const std::vector<std::uint8_t>& bytes);
  // Blocks until one complete frame arrives.  False on EOF, an error or a
  // corrupt stream.
  bool recv_frame(Frame* out);

  // Sends `request`, then reads frames until `accept` takes one (true) or
  // the connection ends or says Bye (false).  Frames it declines are skipped.
  template <class Accept>
  bool call(const std::vector<std::uint8_t>& request, Accept&& accept) {
    if (!send(request)) return false;
    Frame frame;
    while (recv_frame(&frame) && frame.type != FrameType::Bye) {
      if (accept(frame)) return true;
    }
    return false;
  }

  int fd_ = -1;
  FrameReader reader_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace volcal::serve
