// Wire protocol of the volcal_serve query front-end: length-prefixed binary
// frames over a byte stream (Unix-domain socket in the shipped tools; the
// codec itself is transport-agnostic and unit-tested without sockets).
//
// Frame layout (all integers little-endian, matching the snapshot format's
// endianness stance — snapshot.cpp refuses to build big-endian):
//
//   u32  frame_bytes     length of everything after this prefix
//   u8   type            FrameType
//   ...  payload         fixed layout per type, below
//
//   Query  (client -> server):  u64 request_id | i64 node
//   Result (server -> client):  u64 request_id | u8 status | i64 node |
//                               i64 label | i64 volume | i64 distance |
//                               i64 queries | i64 latency_ns
//   Shed   (server -> client):  u64 request_id | u32 retry_after_ms
//                               (retry_after_ms == 0: the service is
//                               draining and will not accept a retry)
//   Bye    (server -> client):  u8 reason (0 = graceful drain)
//   StatsRequest (client -> server):  u64 request_id
//   Stats  (server -> client):  u64 request_id | UTF-8 JSON (rest of frame)
//                               — the live metrics snapshot, answered off
//                               the reader thread without touching the
//                               query queue
//   Update (client -> server):  u64 request_id | u32 rewires | u32 labels |
//                               rewires × (i64 leaf | i64 new_parent) |
//                               labels × (i64 node | u8 channel | i32 value)
//                               — one MutationBatch (graph/mutation.hpp),
//                               applied copy-on-write through
//                               QueryService::apply_mutations
//   UpdateResult (server -> client):  u64 request_id | u8 status |
//                               u64 cache_evicted | u64 cache_retained |
//                               u8 flushed | i64 apply_ns
//
// Every Query is answered by exactly one Result or Shed carrying the same
// request_id; every StatsRequest by exactly one Stats; every Update by
// exactly one UpdateResult.  Ids are client-chosen and opaque to the server
// (responses may arrive out of submission order — the service batches and
// reorders).
//
// FrameReader is the stream-side decoder: feed() whatever bytes arrived,
// next() yields complete frames and buffers partials across reads.  A frame
// whose declared length exceeds its type's bound (kMaxFrameBytes for the
// fixed-layout types, kMaxStatsFrameBytes / kMaxUpdateFrameBytes for the
// variable-length Stats and Update frames) or whose payload does not match
// its type marks the stream
// corrupt — the transport must drop the connection (there is no
// resynchronization in a length-prefixed stream).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/mutation.hpp"

namespace volcal::serve {

enum class FrameType : std::uint8_t {
  Query = 1,
  Result = 2,
  Shed = 3,
  Bye = 4,
  StatsRequest = 5,
  Stats = 6,
  Update = 7,
  UpdateResult = 8,
};

enum class QueryStatus : std::uint8_t {
  Ok = 0,
  InvalidNode = 1,  // node outside [0, n): label/meters are zero
};

struct QueryFrame {
  std::uint64_t request_id = 0;
  std::int64_t node = 0;
};

struct ResultFrame {
  std::uint64_t request_id = 0;
  QueryStatus status = QueryStatus::Ok;
  std::int64_t node = 0;
  std::int64_t label = 0;
  std::int64_t volume = 0;
  std::int64_t distance = 0;
  std::int64_t queries = 0;
  std::int64_t latency_ns = 0;
};

struct ShedFrame {
  std::uint64_t request_id = 0;
  std::uint32_t retry_after_ms = 0;
};

struct ByeFrame {
  std::uint8_t reason = 0;
};

struct StatsRequestFrame {
  std::uint64_t request_id = 0;
};

struct StatsFrame {
  std::uint64_t request_id = 0;
  std::string json;  // one JSON object — the metrics snapshot
};

struct UpdateFrame {
  std::uint64_t request_id = 0;
  MutationBatch batch;
};

enum class UpdateStatus : std::uint8_t {
  Ok = 0,
  Invalid = 1,  // batch rejected (bad rewire / unsupported label channel)
};

struct UpdateResultFrame {
  std::uint64_t request_id = 0;
  UpdateStatus status = UpdateStatus::Ok;
  std::uint64_t cache_evicted = 0;   // memo answers the batch evicted
  std::uint64_t cache_retained = 0;  // memo answers kept warm
  std::uint8_t flushed = 0;  // 1: the whole memo was dropped (the service never does)
  std::int64_t apply_ns = 0;
};

// Decoded frame: `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::Bye;
  QueryFrame query;
  ResultFrame result;
  ShedFrame shed;
  ByeFrame bye;
  StatsRequestFrame stats_request;
  StatsFrame stats;
  UpdateFrame update;
  UpdateResultFrame update_result;
};

// Largest legal frame_bytes value for the fixed-layout types.  Result is the
// biggest such frame (1 + 8 + 1 + 6*8 = 58); anything bigger than this bound
// is stream corruption unless its type byte says Stats — the one
// variable-length frame, bounded separately below.
inline constexpr std::size_t kMaxFrameBytes = 64;
// The Stats response carries a JSON document (counters + gauges + per-family
// histograms); 1 MiB is orders of magnitude above any real snapshot while
// still bounding a hostile length prefix.
inline constexpr std::size_t kMaxStatsFrameBytes = std::size_t{1} << 20;
// The Update frame carries a whole MutationBatch; 1 MiB bounds it at ~65k
// rewires or ~80k label writes per frame — far above any sane delta while
// keeping a hostile length prefix from allocating unbounded memory.
inline constexpr std::size_t kMaxUpdateFrameBytes = std::size_t{1} << 20;

namespace wire {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline std::int64_t get_i64(const std::uint8_t* p) {
  return static_cast<std::int64_t>(get_u64(p));
}

}  // namespace wire

// Encoders — each returns a complete frame including the length prefix,
// ready to write to the stream.
inline std::vector<std::uint8_t> encode_query(const QueryFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 16);
  wire::put_u32(out, 1 + 16);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Query));
  wire::put_u64(out, f.request_id);
  wire::put_i64(out, f.node);
  return out;
}

inline std::vector<std::uint8_t> encode_result(const ResultFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 57);
  wire::put_u32(out, 1 + 8 + 1 + 6 * 8);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Result));
  wire::put_u64(out, f.request_id);
  wire::put_u8(out, static_cast<std::uint8_t>(f.status));
  wire::put_i64(out, f.node);
  wire::put_i64(out, f.label);
  wire::put_i64(out, f.volume);
  wire::put_i64(out, f.distance);
  wire::put_i64(out, f.queries);
  wire::put_i64(out, f.latency_ns);
  return out;
}

inline std::vector<std::uint8_t> encode_shed(const ShedFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 12);
  wire::put_u32(out, 1 + 8 + 4);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Shed));
  wire::put_u64(out, f.request_id);
  wire::put_u32(out, f.retry_after_ms);
  return out;
}

inline std::vector<std::uint8_t> encode_bye(const ByeFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 2);
  wire::put_u32(out, 2);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Bye));
  wire::put_u8(out, f.reason);
  return out;
}

inline std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 8);
  wire::put_u32(out, 1 + 8);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::StatsRequest));
  wire::put_u64(out, request_id);
  return out;
}

inline std::vector<std::uint8_t> encode_stats(std::uint64_t request_id,
                                              std::string_view json) {
  // A snapshot that would overflow the frame bound is replaced by an error
  // object — truncated JSON would corrupt the stream for the peer.
  if (1 + 8 + json.size() > kMaxStatsFrameBytes) {
    json = "{\"error\": \"stats snapshot exceeds frame bound\"}";
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 8 + json.size());
  wire::put_u32(out, static_cast<std::uint32_t>(1 + 8 + json.size()));
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Stats));
  wire::put_u64(out, request_id);
  out.insert(out.end(), json.begin(), json.end());
  return out;
}

inline std::vector<std::uint8_t> encode_update(const UpdateFrame& f) {
  const std::size_t body = 1 + 8 + 4 + 4 + f.batch.rewires.size() * 16 +
                           f.batch.label_updates.size() * 13;
  if (body > kMaxUpdateFrameBytes) {
    throw std::length_error("encode_update: batch exceeds kMaxUpdateFrameBytes");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + body);
  wire::put_u32(out, static_cast<std::uint32_t>(body));
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::Update));
  wire::put_u64(out, f.request_id);
  wire::put_u32(out, static_cast<std::uint32_t>(f.batch.rewires.size()));
  wire::put_u32(out, static_cast<std::uint32_t>(f.batch.label_updates.size()));
  for (const LeafRewire& r : f.batch.rewires) {
    wire::put_i64(out, static_cast<std::int64_t>(r.leaf));
    wire::put_i64(out, static_cast<std::int64_t>(r.new_parent));
  }
  for (const LabelUpdate& u : f.batch.label_updates) {
    wire::put_i64(out, static_cast<std::int64_t>(u.node));
    wire::put_u8(out, static_cast<std::uint8_t>(u.channel));
    wire::put_u32(out, static_cast<std::uint32_t>(u.value));
  }
  return out;
}

inline std::vector<std::uint8_t> encode_update_result(const UpdateResultFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + 8 + 1 + 8 + 8 + 1 + 8);
  wire::put_u32(out, 1 + 8 + 1 + 8 + 8 + 1 + 8);
  wire::put_u8(out, static_cast<std::uint8_t>(FrameType::UpdateResult));
  wire::put_u64(out, f.request_id);
  wire::put_u8(out, static_cast<std::uint8_t>(f.status));
  wire::put_u64(out, f.cache_evicted);
  wire::put_u64(out, f.cache_retained);
  wire::put_u8(out, f.flushed);
  wire::put_i64(out, f.apply_ns);
  return out;
}

// Decodes the body of one frame (everything after the length prefix).
// Returns false — without touching `out` beyond its type field — when the
// type is unknown or the payload length does not match the type.
inline bool decode_frame(const std::uint8_t* body, std::size_t len, Frame* out) {
  if (len < 1) return false;
  const auto type = static_cast<FrameType>(body[0]);
  const std::uint8_t* p = body + 1;
  const std::size_t payload = len - 1;
  switch (type) {
    case FrameType::Query:
      if (payload != 16) return false;
      out->type = type;
      out->query.request_id = wire::get_u64(p);
      out->query.node = wire::get_i64(p + 8);
      return true;
    case FrameType::Result:
      if (payload != 8 + 1 + 6 * 8) return false;
      out->type = type;
      out->result.request_id = wire::get_u64(p);
      out->result.status = static_cast<QueryStatus>(p[8]);
      out->result.node = wire::get_i64(p + 9);
      out->result.label = wire::get_i64(p + 17);
      out->result.volume = wire::get_i64(p + 25);
      out->result.distance = wire::get_i64(p + 33);
      out->result.queries = wire::get_i64(p + 41);
      out->result.latency_ns = wire::get_i64(p + 49);
      return true;
    case FrameType::Shed:
      if (payload != 12) return false;
      out->type = type;
      out->shed.request_id = wire::get_u64(p);
      out->shed.retry_after_ms = wire::get_u32(p + 8);
      return true;
    case FrameType::Bye:
      if (payload != 1) return false;
      out->type = type;
      out->bye.reason = p[0];
      return true;
    case FrameType::StatsRequest:
      if (payload != 8) return false;
      out->type = type;
      out->stats_request.request_id = wire::get_u64(p);
      return true;
    case FrameType::Stats:
      if (payload < 8) return false;
      out->type = type;
      out->stats.request_id = wire::get_u64(p);
      out->stats.json.assign(reinterpret_cast<const char*>(p + 8), payload - 8);
      return true;
    case FrameType::Update: {
      if (payload < 16) return false;
      const std::uint64_t request_id = wire::get_u64(p);
      const std::uint32_t rewires = wire::get_u32(p + 8);
      const std::uint32_t labels = wire::get_u32(p + 12);
      if (payload != 16 + std::uint64_t{rewires} * 16 + std::uint64_t{labels} * 13) {
        return false;
      }
      out->type = type;
      out->update.request_id = request_id;
      out->update.batch.rewires.clear();
      out->update.batch.label_updates.clear();
      out->update.batch.rewires.reserve(rewires);
      out->update.batch.label_updates.reserve(labels);
      const std::uint8_t* q = p + 16;
      for (std::uint32_t i = 0; i < rewires; ++i, q += 16) {
        LeafRewire r;
        r.leaf = static_cast<NodeIndex>(wire::get_i64(q));
        r.new_parent = static_cast<NodeIndex>(wire::get_i64(q + 8));
        out->update.batch.rewires.push_back(r);
      }
      for (std::uint32_t i = 0; i < labels; ++i, q += 13) {
        LabelUpdate u;
        u.node = static_cast<NodeIndex>(wire::get_i64(q));
        u.channel = static_cast<LabelChannel>(q[8]);
        u.value = static_cast<int>(static_cast<std::int32_t>(wire::get_u32(q + 9)));
        out->update.batch.label_updates.push_back(u);
      }
      return true;
    }
    case FrameType::UpdateResult:
      if (payload != 8 + 1 + 8 + 8 + 1 + 8) return false;
      out->type = type;
      out->update_result.request_id = wire::get_u64(p);
      out->update_result.status = static_cast<UpdateStatus>(p[8]);
      out->update_result.cache_evicted = wire::get_u64(p + 9);
      out->update_result.cache_retained = wire::get_u64(p + 17);
      out->update_result.flushed = p[25];
      out->update_result.apply_ns = wire::get_i64(p + 26);
      return true;
  }
  return false;
}

// Incremental stream decoder: buffers partial frames across feed() calls.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  // Pops the next complete frame.  False when the buffer holds no complete
  // frame yet — or the stream is corrupt (check corrupt(); once set, no
  // further frame is ever produced).
  bool next(Frame* out) {
    if (corrupt_) return false;
    if (buf_.size() - pos_ < 4) {
      compact();
      return false;
    }
    const std::uint32_t frame_bytes = wire::get_u32(buf_.data() + pos_);
    if (frame_bytes == 0) {
      corrupt_ = true;
      return false;
    }
    if (frame_bytes > kMaxFrameBytes) {
      // Only the variable-length types (Stats response, Update batch) may
      // exceed the fixed-layout bound; peek the type byte (wait for it if the
      // prefix arrived alone) before deciding between "large but legal" and
      // corruption.
      if (buf_.size() - pos_ < 5) {
        compact();
        return false;
      }
      const auto peeked = static_cast<FrameType>(buf_[pos_ + 4]);
      const bool legal =
          (peeked == FrameType::Stats && frame_bytes <= kMaxStatsFrameBytes) ||
          (peeked == FrameType::Update && frame_bytes <= kMaxUpdateFrameBytes);
      if (!legal) {
        corrupt_ = true;
        return false;
      }
    }
    if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(frame_bytes)) {
      compact();
      return false;
    }
    if (!decode_frame(buf_.data() + pos_ + 4, frame_bytes, out)) {
      corrupt_ = true;
      return false;
    }
    pos_ += 4 + frame_bytes;
    return true;
  }

  bool corrupt() const { return corrupt_; }

 private:
  // Drop consumed bytes when nothing is in flight (keeps the buffer from
  // growing across a long-lived connection).
  void compact() {
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace volcal::serve
