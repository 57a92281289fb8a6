// The two workloads: a QueryService behind an in-process SocketServer,
// driven over Unix-socket connections by one client thread per phase.
//
//   serve-leaf  leaf-coloring snapshot, n-target 2^16: Θ(n)-volume hot
//               answers ("seeing far"), so the executor dominates and
//               transport is noise.
//   serve-ball  ball-4 snapshot, n-target 2^18: cheap radius-4 balls with
//               ~75% ViewCache hits ("seeing wide"), so admission, waves,
//               cache triage, the codec and the socket dominate.
//
// Both use the volcal_serve defaults (shared cache, batch 64, queue 1024)
// with 2 workers, Zipf(0.9) traffic over node ids, and the same phases:
//
//   prepare     kGenReps times RegistryEntry::make (the median is
//               lcl.gen_s); the instance saved as a snapshot and loaded
//               back; kSweepReps whole-graph sweeps of the loaded instance,
//               every node a start, through ParallelRunner::run_planned at
//               library defaults (1 worker, batched backend, cache off); the
//               output checked by the family's verifier.  The sweep's labels
//               are the reference every served answer is checked against;
//   setup       kSetupReps times: io::load_instance -> QueryService +
//               SocketServer::start + connect -> first answer (median);
//   warm-up     closed loop, untimed;
//   fixed-rate  open loop on an absolute schedule; each request is timed
//               from when it was due, a shed or lost request counts as
//               +infinity;
//   saturation  closed loop, kWindow requests in flight on one connection;
//   churn       on a fresh stack after its own warm-up: the open loop of
//               reads while precomputed MutationBatches are sent, one in
//               flight, on a second connection, paced over the phase.
//
// Every phase runs a fixed number of requests: the service's cost grows
// with the requests it has served, so fixed counts give every run the same
// state.  A third connection polls Stats at 1 Hz throughout, as volcal_top
// would.  After churn every node is re-queried against the offline labels
// of the benchmark's mirror (the snapshot with every acked batch applied
// through ErasedInstance::mutated).
//
// The traced pass adds three measurements the untraced one skips: the same
// fixed-rate stream submitted to the QueryService in-process (no socket), a
// direct ErasedInstance::solve of every node of that stream, and a
// codec loop.
#include <malloc.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"
#include "perf/json.hpp"
#include "util/hash.hpp"
#include "volcal/io.hpp"
#include "volcal/problems.hpp"
#include "volcal/runtime.hpp"
#include "volcal/serve.hpp"

namespace volbench {

namespace {

using volcal::NodeIndex;
namespace serve = volcal::serve;

struct ServePlan {
  const char* family;
  NodeIndex n_target;
  double nominal_qps;  // sizes the closed-loop phases: requests = nominal_qps * seconds
  double rate;         // offered reads/s in the fixed-rate phase
  double churn_rate;   // offered reads/s beside the updates in churn
  int churn_batches;  // MutationBatches sent during churn
  // Shares of --seconds given to saturation, fixed-rate and churn.
  double sat_share;
  double fixed_share;
  double churn_share;
};

// Every update stalls reads for its whole apply (apply_mutations copies the
// CSR under the target lock), so churn reads are offered at a rate whose
// backlog over one stall stays well inside the 1024-deep queue.
constexpr ServePlan kServeLeaf{"leaf-coloring", NodeIndex{1} << 16, 4000.0, 1000.0, 1000.0, 100,
                               6.0 / 19.0, 8.0 / 19.0, 5.0 / 19.0};
constexpr ServePlan kServeBall{"ball-4", NodeIndex{1} << 18, 50000.0, 20000.0, 2000.0, 50,
                               1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};

constexpr int kServiceThreads = 2;
constexpr int kGenReps = 3;
constexpr int kSweepReps = 3;
constexpr int kSetupReps = 15;
// Closed-loop requests in flight: four waves' worth.  With only batch_max
// (64) in flight one worker's wave can take the whole window and leave the
// other idle, so throughput depended on which worker won (serve-leaf read
// 3.1k-5.5k/s over ten runs).
constexpr int kWindow = 256;
constexpr double kZipfTheta = 0.9;
constexpr double kWarmupSeconds = 1.0;
constexpr double kStatsPeriodSeconds = 1.0;
constexpr std::int64_t kLostAfterNs = 10'000'000'000;  // no answer for 10 s: lost
constexpr int kCodecPairs = 200000;
constexpr std::int64_t kRateWindowNs = 500'000'000;  // saturation throughput windows
constexpr double kInf = std::numeric_limits<double>::infinity();

// Request-id tags, one per phase, above the per-phase index.
constexpr std::uint64_t kTagFirst = 1ull << 40;
constexpr std::uint64_t kTagWarm = 2ull << 40;
constexpr std::uint64_t kTagSat = 3ull << 40;
constexpr std::uint64_t kTagFixed = 4ull << 40;
constexpr std::uint64_t kTagChurn = 5ull << 40;
constexpr std::uint64_t kTagVerify = 6ull << 40;
constexpr std::uint64_t kTagUpdate = 7ull << 40;
constexpr std::uint64_t kIndexMask = (1ull << 40) - 1;

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Returns the heap's free pages to the kernel between phases (main.cpp
// turns automatic trimming off), so that what each phase adds to the
// resident set does not depend on how earlier phases left the heap.
void release_free_memory() { malloc_trim(0); }

// Counts nodes v with out[v] != |N_v(radius)|, by a bounded BFS per node.
// This is the batched-ball families' verifier predicate; their own
// verify() recomputes every ball with a fresh n-byte visited array, Θ(n²).
std::int64_t ball_census_violations(volcal::GraphView g, std::int64_t radius,
                                    const std::vector<int>& out) {
  const NodeIndex n = g.node_count();
  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(n), 0);
  std::vector<NodeIndex> queue;
  std::vector<std::int64_t> depth;
  std::int64_t bad = 0;
  for (NodeIndex v = 0; v < n; ++v) {
    const auto mark = static_cast<std::uint32_t>(v) + 1;
    queue.assign(1, v);
    depth.assign(1, 0);
    stamp[static_cast<std::size_t>(v)] = mark;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (depth[head] == radius) continue;
      for (const NodeIndex w : g.neighbors(queue[head])) {
        if (stamp[static_cast<std::size_t>(w)] == mark) continue;
        stamp[static_cast<std::size_t>(w)] = mark;
        queue.push_back(w);
        depth.push_back(depth[head] + 1);
      }
    }
    if (out[static_cast<std::size_t>(v)] != static_cast<int>(queue.size())) ++bad;
  }
  return bad;
}

// Zipf(theta) over [0, n) by inverse CDF; rank i is node i, so the stream's
// cost profile does not depend on the seed.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double theta, std::uint64_t seed)
      : cdf_(static_cast<std::size_t>(n)), state_(seed) {
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<std::size_t>(i)] = total;
    }
  }

  NodeIndex next() {
    state_ = volcal::splitmix64(state_ + 0x9e3779b97f4a7c15ull);
    const double u =
        static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0) * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<NodeIndex>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

  std::vector<NodeIndex> stream(std::size_t count) {
    std::vector<NodeIndex> out(count);
    for (auto& v : out) v = next();
    return out;
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

// One pipelined connection: frames encoded with the serve codec, written
// with blocking sends, read without blocking and decoded by FrameReader, so
// one thread can wait on a schedule and on several connections at once.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  bool connect(const std::string& path) {
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    reader_ = serve::FrameReader();
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

  bool send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  // Reads whatever has arrived.  False on EOF, error or a corrupt stream.
  bool read_available() {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t r = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (r > 0) {
        reader_.feed(buf, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof buf) break;
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or error
    }
    return !reader_.corrupt();
  }

  bool next(serve::Frame* f) { return reader_.next(f); }

 private:
  int fd_ = -1;
  serve::FrameReader reader_;
};

// Waits until one of `conns` is readable or `timeout_ns` passes (<= 0: no
// wait).  Returns true if something is readable.
bool wait_readable(std::initializer_list<Conn*> conns, std::int64_t timeout_ns) {
  pollfd fds[3];
  nfds_t n = 0;
  for (Conn* c : conns) {
    if (c != nullptr && c->fd() >= 0) fds[n++] = pollfd{c->fd(), POLLIN, 0};
  }
  timespec ts{};
  const std::int64_t t = std::max<std::int64_t>(timeout_ns, 0);
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  for (;;) {
    const int r = ::ppoll(fds, n, &ts, nullptr);
    if (r < 0 && errno == EINTR) continue;
    return r > 0;
  }
}

// Read-side accounting of one phase.
struct Tally {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t invalid = 0;
  std::int64_t mismatched = 0;
  std::int64_t lost = 0;
  std::vector<double> latency_ms;  // from due time; +inf for shed/invalid/lost
  std::vector<double> lag_ms;      // send time - due time

  std::int64_t failed() const { return shed + invalid + mismatched + lost; }
};

// Checks one Result against the expected label of the node it was sent for.
// Returns false for anything but a correct answer (and counts why).
bool check_result(const serve::ResultFrame& r, NodeIndex node, const std::vector<int>* expected,
                  Tally* t) {
  if (r.status != serve::QueryStatus::Ok) {
    ++t->invalid;
    return false;
  }
  if (r.node != node ||
      (expected != nullptr && r.label != (*expected)[static_cast<std::size_t>(node)])) {
    ++t->mismatched;
    return false;
  }
  ++t->ok;
  return true;
}

// Median over the full `window_ns` windows since `begin` of answers/s in
// each; the whole span's rate when fewer than three windows are full.
double windowed_rate(const std::vector<std::int64_t>& done_ns, std::int64_t begin,
                     std::int64_t window_ns) {
  if (done_ns.empty()) return 0.0;
  const std::int64_t full = (done_ns.back() - begin) / window_ns;
  if (full < 3) {
    return static_cast<double>(done_ns.size()) /
           (static_cast<double>(std::max<std::int64_t>(done_ns.back() - begin, 1)) * 1e-9);
  }
  std::vector<double> counts(static_cast<std::size_t>(full), 0.0);
  for (const std::int64_t t : done_ns) {
    const std::int64_t w = (t - begin) / window_ns;
    if (w < full) counts[static_cast<std::size_t>(w)] += 1.0;
  }
  return median(counts) / (static_cast<double>(window_ns) * 1e-9);
}

// Median over consecutive chunks of `per_window` samples (one second of an
// open loop's schedule) of each chunk's q-quantile; the pooled quantile when
// fewer than three chunks are full.
double windowed_quantile(const std::vector<double>& samples, std::size_t per_window, double q) {
  const std::size_t full = per_window > 0 ? samples.size() / per_window : 0;
  if (full < 3) return quantile(samples, q);
  std::vector<double> per;
  for (std::size_t w = 0; w < full; ++w) {
    per.push_back(quantile(std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(w * per_window),
                                               samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * per_window)),
                           q));
  }
  return median(per);
}

// Closed loop over `stream`: kWindow requests in flight, the next one sent
// as each answer arrives, every answer checked.  Returns the median over
// kRateWindowNs windows of answers/s.
double closed_loop(Conn& c, const std::vector<NodeIndex>& stream, std::uint64_t tag,
                   const std::vector<int>& expected, Tally* t) {
  std::size_t next = 0;
  std::int64_t outstanding = 0;
  std::vector<std::int64_t> done_ns;
  done_ns.reserve(stream.size());
  const auto post = [&]() {
    const std::uint64_t id = tag | next;
    Span s("serve.send", id);
    ++t->sent;
    ++outstanding;
    return c.send(serve::encode_query({id, stream[next++]}));
  };
  const std::int64_t begin = now_ns();
  std::int64_t last = begin;
  bool broken = false;
  while (!broken && next < stream.size() && outstanding < kWindow) broken = !post();
  while (!broken && outstanding > 0) {
    bool readable = false;
    {
      Span s("serve.wait");
      readable = wait_readable({&c}, kLostAfterNs);
    }
    if (!readable) break;
    {
      Span s("serve.recv");
      if (!c.read_available()) break;
      last = now_ns();
    }
    serve::Frame f;
    for (;;) {
      {
        Span s("serve.decode");
        if (!c.next(&f)) break;
      }
      std::uint64_t id = 0;
      if (f.type == serve::FrameType::Result) {
        id = f.result.request_id;
      } else if (f.type == serve::FrameType::Shed) {
        id = f.shed.request_id;
      } else {
        continue;
      }
      const std::size_t idx = id & kIndexMask;
      if ((id & ~kIndexMask) != tag || idx >= next) {
        ++t->mismatched;
        continue;
      }
      --outstanding;
      done_ns.push_back(last);
      if (f.type == serve::FrameType::Shed) {
        ++t->shed;
      } else {
        Span s("check.label", id);
        check_result(f.result, stream[idx], &expected, t);
      }
      if (next < stream.size() && !post()) {
        broken = true;
        break;
      }
    }
  }
  // A broken or silent connection: everything unanswered or unsent is lost.
  t->lost += outstanding + static_cast<std::int64_t>(stream.size() - next);
  return windowed_rate(done_ns, begin, kRateWindowNs);
}

// The same closed loop through QueryService::submit, in process.
void inprocess_closed_loop(serve::QueryService& service, const std::vector<NodeIndex>& stream,
                           const std::vector<int>& expected, Tally* t) {
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t outstanding = 0;
  std::int64_t wrong = 0;
  std::int64_t refused = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return outstanding < kWindow; });
      ++outstanding;
    }
    const NodeIndex node = stream[i];
    ++t->sent;
    const auto adm = service.submit(i, node, [&, node](const serve::QueryResult& r) {
      const bool ok = r.status == serve::QueryStatus::Ok &&
                      r.label == expected[static_cast<std::size_t>(node)];
      std::lock_guard lock(mu);
      if (!ok) ++wrong;
      --outstanding;
      cv.notify_one();  // under the lock: the waiter may return once it is released
    });
    if (adm != serve::Admission::Accepted) {
      ++refused;
      std::lock_guard lock(mu);
      --outstanding;
    }
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return outstanding == 0; });
  t->shed += refused;
  t->mismatched += wrong;
  t->ok += static_cast<std::int64_t>(stream.size()) - refused - wrong;
}

struct UpdateTally {
  std::int64_t sent = 0;
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  std::int64_t lost = 0;
  std::int64_t evicted = 0;
  std::int64_t retained = 0;
  std::int64_t flushes = 0;
  std::vector<double> rtt_ms;
  std::vector<double> apply_ms;
};

// Open loop: stream[i] is due at begin + i / rate, sent when due whatever
// the answers; latency runs from the due time.  With `upd` set, batches[k]
// is due at begin + (k + 0.5) * duration / batches.size() on that
// connection, one update in flight.
void open_loop(Conn& c, const std::vector<NodeIndex>& stream, double rate, std::uint64_t tag,
               const std::vector<int>* expected, Tally* t, Conn* upd,
               const std::vector<volcal::MutationBatch>* batches, UpdateTally* ut) {
  const std::size_t count = stream.size();
  const std::int64_t begin = now_ns() + 1'000'000;
  const double period_ns = 1e9 / rate;
  const auto due = [&](std::size_t i) {
    return begin + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  const std::size_t n_upd = batches != nullptr ? batches->size() : 0;
  const double upd_period_ns = static_cast<double>(count) * period_ns /
                               static_cast<double>(std::max<std::size_t>(n_upd, 1));
  const auto upd_due = [&](std::size_t k) {
    return begin + static_cast<std::int64_t>((static_cast<double>(k) + 0.5) * upd_period_ns);
  };
  std::vector<std::int64_t> due_of(count);
  t->latency_ms.assign(count, kInf);
  t->lag_ms.reserve(count);
  std::size_t next = 0;
  std::size_t answered = 0;
  std::size_t next_upd = 0;
  bool upd_in_flight = false;
  std::int64_t upd_sent_at = 0;
  std::int64_t last_progress = now_ns();
  bool broken = false;
  while (!broken && (answered < count || next_upd < n_upd || upd_in_flight)) {
    std::int64_t now = now_ns();
    while (next < count && due(next) <= now) {
      const std::uint64_t id = tag | next;
      due_of[next] = due(next);
      {
        Span s("serve.send", id);
        t->lag_ms.push_back(ms(now_ns() - due_of[next]));
        ++t->sent;
        broken = !c.send(serve::encode_query({id, stream[next]}));
      }
      ++next;
      if (broken) break;
      now = now_ns();
    }
    if (broken) break;
    if (upd != nullptr && !upd_in_flight && next_upd < n_upd && upd_due(next_upd) <= now) {
      Span s("serve.update_send", kTagUpdate | next_upd);
      serve::UpdateFrame uf;
      uf.request_id = kTagUpdate | next_upd;
      uf.batch = (*batches)[next_upd];
      upd_sent_at = now_ns();
      ++ut->sent;
      upd_in_flight = true;
      if (!upd->send(serve::encode_update(uf))) {
        broken = true;
        break;
      }
    }
    bool progressed = false;
    {
      std::int64_t recv_at = 0;
      {
        Span s("serve.recv");
        broken = !c.read_available();
        recv_at = now_ns();
      }
      serve::Frame f;
      for (;;) {
        {
          Span s("serve.decode");
          if (!c.next(&f)) break;
        }
        std::uint64_t id = 0;
        if (f.type == serve::FrameType::Result) {
          id = f.result.request_id;
        } else if (f.type == serve::FrameType::Shed) {
          id = f.shed.request_id;
        } else {
          continue;
        }
        const std::size_t idx = id & kIndexMask;
        if ((id & ~kIndexMask) != tag || idx >= next) {
          ++t->mismatched;
          continue;
        }
        ++answered;
        progressed = true;
        if (f.type == serve::FrameType::Shed) {
          ++t->shed;
          continue;
        }
        Span s("check.label", id);
        if (check_result(f.result, stream[idx], expected, t)) {
          t->latency_ms[idx] = ms(recv_at - due_of[idx]);
        }
      }
    }
    if (upd != nullptr && upd_in_flight) {
      {
        Span s("serve.update_recv");
        broken = !upd->read_available();
      }
      serve::Frame f;
      while (upd->next(&f)) {
        if (f.type != serve::FrameType::UpdateResult) continue;
        const std::int64_t rtt = now_ns() - upd_sent_at;
        if (f.update_result.request_id != (kTagUpdate | next_upd)) {
          ++ut->lost;
          continue;
        }
        upd_in_flight = false;
        progressed = true;
        ++next_upd;
        ut->rtt_ms.push_back(ms(rtt));
        if (f.update_result.status != serve::UpdateStatus::Ok) {
          // Later batches were proposed against the acknowledged graph.
          ++ut->rejected;
          std::fprintf(stderr, "volbench: server rejected update %zu\n", next_upd - 1);
          broken = true;
          break;
        }
        ++ut->applied;
        ut->apply_ms.push_back(ms(f.update_result.apply_ns));
        ut->evicted += static_cast<std::int64_t>(f.update_result.cache_evicted);
        ut->retained += static_cast<std::int64_t>(f.update_result.cache_retained);
        if (f.update_result.flushed != 0) ++ut->flushes;
      }
    }
    if (broken || (answered >= count && next_upd >= n_upd && !upd_in_flight)) break;
    now = now_ns();
    if (progressed) last_progress = now;
    if (now - last_progress > kLostAfterNs && next >= count) break;
    std::int64_t wake = now + kLostAfterNs;
    if (next < count) wake = std::min(wake, due(next));
    if (upd != nullptr && !upd_in_flight && next_upd < n_upd) wake = std::min(wake, upd_due(next_upd));
    Span s("load.idle");
    wait_readable({&c, upd_in_flight ? upd : nullptr}, wake - now);
  }
  // Everything unanswered or (after a failure) unsent is lost.
  t->lost += static_cast<std::int64_t>(count - answered);
  if (ut != nullptr) ut->lost += static_cast<std::int64_t>(n_upd - next_upd);
}

// Polls Stats on its own connection every kStatsPeriodSeconds until stopped.
class StatsPoller {
 public:
  explicit StatsPoller(const std::string& path) : path_(path) {
    thread_ = std::thread([this] { loop(); });
  }
  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;
  ~StatsPoller() { stop(); }

  void stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  const std::vector<double>& rtt_ms() const { return rtt_ms_; }
  const std::vector<double>& bytes() const { return bytes_; }
  std::int64_t failed() const { return failed_; }

 private:
  void loop() {
    Span phase("obs.poller");
    serve::ServeClient client;
    if (!client.connect(path_)) {
      ++failed_;
      return;
    }
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(kStatsPeriodSeconds),
                         [this] { return stop_; })) {
      lock.unlock();
      std::string json;
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        Span s("obs.stats_poll");
        ok = client.stats(&json);
      }
      const std::int64_t t1 = now_ns();
      lock.lock();
      if (!ok) {
        ++failed_;
        break;
      }
      rtt_ms_.push_back(ms(t1 - t0));
      bytes_.push_back(static_cast<double>(json.size()));
    }
    lock.unlock();
    client.bye();
  }

  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> rtt_ms_;
  std::vector<double> bytes_;
  std::int64_t failed_ = 0;
  std::thread thread_;
};

// The served stack: instance, service and server, torn down in order.
struct Stack {
  std::shared_ptr<const volcal::ErasedInstance> instance;
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<serve::SocketServer> server;

  ~Stack() { stop(); }
  void stop() {
    if (service) service->drain_and_stop();
    if (server) server->stop();
    server.reset();
    service.reset();
    instance.reset();
  }
};

serve::ServeConfig service_config() {
  serve::ServeConfig cfg;
  cfg.threads = kServiceThreads;
  cfg.queue_capacity = 1024;
  cfg.batch_max = 64;
  cfg.cache.policy = volcal::CachePolicy::Shared;
  return cfg;
}

// Microbenchmark of the wire codec: encode_query + encode_result and both
// frames decoded through a FrameReader, per pair.
volatile std::int64_t g_codec_sink = 0;

double codec_ns_per_pair() {
  std::int64_t sink = 0;
  serve::FrameReader reader;
  serve::Frame f;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kCodecPairs; ++i) {
    const auto q = serve::encode_query({static_cast<std::uint64_t>(i), i});
    serve::ResultFrame r;
    r.request_id = static_cast<std::uint64_t>(i);
    r.node = i;
    r.label = i & 7;
    r.volume = i;
    const auto res = serve::encode_result(r);
    reader.feed(q.data(), q.size());
    reader.feed(res.data(), res.size());
    while (reader.next(&f)) sink += f.type == serve::FrameType::Result ? f.result.node : 1;
  }
  const double per_pair = static_cast<double>(now_ns() - t0) / kCodecPairs;
  g_codec_sink = sink;
  return per_pair;
}

struct StatsView {
  double completed = 0, waves = 0, hits = 0, misses = 0, evictions = 0;
};

StatsView parse_stats(const std::string& json) {
  StatsView v;
  const volcal::perf::JsonValue doc = volcal::perf::parse_json(json);
  v.completed = doc.number_at("completed");
  if (const auto* b = doc.find("batch")) v.waves = b->number_at("waves");
  if (const auto* c = doc.find("cache")) {
    v.hits = c->number_at("hits");
    v.misses = c->number_at("misses");
    v.evictions = c->number_at("evictions");
  }
  return v;
}

// The fixed-rate open loop through QueryService::submit, in process: the
// same schedule, latency from the due time to the completion callback.
// Returns per-request latencies (+inf for refused or wrong answers).
std::vector<double> inprocess_open_loop(serve::QueryService& service,
                                        const std::vector<NodeIndex>& stream, double rate,
                                        const std::vector<int>& expected, Tally* t) {
  const std::size_t count = stream.size();
  std::vector<std::int64_t> done_at(count, 0);
  std::vector<std::int64_t> due_of(count, 0);
  std::vector<std::uint8_t> good(count, 0);
  std::atomic<std::size_t> completed{0};
  std::size_t accepted = 0;
  const std::int64_t begin = now_ns() + 1'000'000;
  const double period_ns = 1e9 / rate;
  for (std::size_t i = 0; i < count; ++i) {
    due_of[i] = begin + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    {
      Span s("load.idle");
      const std::int64_t wait = due_of[i] - now_ns();
      if (wait > 0) {
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                          static_cast<long>(wait % 1'000'000'000)};
        ::nanosleep(&ts, nullptr);
      }
    }
    Span s("serve.submit", i);
    ++t->sent;
    const NodeIndex node = stream[i];
    const auto adm = service.submit(i, node, [&, i, node](const serve::QueryResult& r) {
      done_at[i] = now_ns();
      good[i] = r.status == serve::QueryStatus::Ok &&
                r.label == expected[static_cast<std::size_t>(node)];
      completed.fetch_add(1, std::memory_order_release);
    });
    if (adm == serve::Admission::Accepted) {
      ++accepted;
    } else {
      ++t->shed;
    }
  }
  {
    Span s("serve.drain_wait");
    const std::int64_t give_up = now_ns() + kLostAfterNs;
    while (completed.load(std::memory_order_acquire) < accepted && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (completed.load(std::memory_order_acquire) < accepted) {
    // Callbacks still reference this frame: wait them out before returning.
    std::fprintf(stderr, "volbench: in-process requests are late; waiting for them\n");
    t->lost += static_cast<std::int64_t>(accepted - completed.load());
    service.drain_and_stop();
  }
  std::vector<double> latency(count, kInf);
  for (std::size_t i = 0; i < count; ++i) {
    if (done_at[i] == 0) continue;  // refused
    if (good[i] == 0) {
      ++t->mismatched;
      continue;
    }
    ++t->ok;
    latency[i] = ms(done_at[i] - due_of[i]);
  }
  return latency;
}

}  // namespace

int run_serve(const Options& opt, Report* out) {
  using namespace volcal;
  const ServePlan& plan = opt.workload == "serve-leaf" ? kServeLeaf : kServeBall;
  const RegistryEntry* entry = ProblemRegistry::global().find(plan.family);
  if (entry == nullptr) {
    std::fprintf(stderr, "volbench: registry has no family %s\n", plan.family);
    return 2;
  }
  const std::string tag = std::to_string(::getpid());
  const std::string snap_path = opt.work_dir + "/" + plan.family + "-s" +
                                std::to_string(opt.seed) + "-" + tag + ".vsnap";
  const std::string sock_path = opt.work_dir + "/vb-" + tag + ".sock";
  struct Cleanup {
    std::string a, b;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(a, ec);
      std::filesystem::remove(b, ec);
    }
  } cleanup{snap_path, sock_path};

  // --- untimed preparation: instance, snapshot, whole-graph sweep ------------
  std::vector<int> expected;
  NodeIndex n = 0;
  std::vector<double> gen_s, sweep_s;
  SweepStats sweep_stats;
  Tally prepare;
  print_thread_budget("prepare", 0, 0, 1, "run_planned on the calling thread (1 worker)");
  {
    Span phase("prepare");
    {
      std::optional<ErasedInstance> made;
      for (int r = 0; r < kGenReps; ++r) {
        made.reset();
        const std::int64_t t0 = now_ns();
        {
          Span s("lcl.make");
          made.emplace(entry->make(plan.n_target, opt.seed));
        }
        gen_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      }
      Span s("io.save_snapshot");
      made->save_snapshot(snap_path);
    }
    std::optional<ErasedInstance> local;
    {
      Span s("io.load_instance");
      local.emplace(io::load_instance(snap_path));
    }
    n = local->node_count();
    std::vector<NodeIndex> starts(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) starts[static_cast<std::size_t>(v)] = v;
    ParallelRunner runner(1, CacheConfig{});
    runner.set_backend(ExecBackend::Batched);
    const auto solver = [&local](Execution& e) { return local->solve(e); };
    for (int r = 0; r < kSweepReps; ++r) {
      const std::int64_t t0 = now_ns();
      SweepResult<int> res;
      {
        Span s("runtime.run_planned");
        res = runner.run_planned(local->graph(), local->ids(), starts, entry->plan, solver);
      }
      sweep_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      prepare.sent += res.stats.starts;
      if (r == 0) {
        sweep_stats = res.stats;
        expected = std::move(res.output);
      } else if (!same_costs(sweep_stats, res.stats) || res.output != expected) {
        std::fprintf(stderr, "volbench: %s sweep %d differs from the first\n", plan.family, r);
        ++prepare.mismatched;
      }
    }
    VerifyResult vr;
    if (entry->plan.batchable()) {
      Span s("check.ball_census");
      vr.violations = ball_census_violations(local->graph(), entry->plan.radius, expected);
      vr.ok = vr.violations == 0;
    } else {
      Span s("lcl.verify");
      vr = local->verify(expected);
    }
    ++prepare.sent;
    if (!vr.ok || vr.violations != 0) {
      std::fprintf(stderr, "volbench: %s verifier: %lld violation(s), first at node %lld\n",
                   plan.family, static_cast<long long>(vr.violations),
                   static_cast<long long>(vr.first_bad));
      prepare.mismatched += std::max<std::int64_t>(vr.violations, 1);
    }
    std::printf("[prepare] %s n=%lld: gen %.4f s (x%d)  sweep %.4f s (x%d)  probes %lld  "
                "volume %lld  backend %s  verify %s\n",
                plan.family, static_cast<long long>(n), median(gen_s), kGenReps,
                median(sweep_s), kSweepReps, static_cast<long long>(sweep_stats.total_queries),
                static_cast<long long>(sweep_stats.total_volume),
                sweep_stats.backend == ExecBackend::Batched ? "batched" : "basic",
                vr.ok ? "ok" : "FAILED");
  }
  release_free_memory();
  print_memory("prepare");
  ZipfSampler zipf(n, kZipfTheta, splitmix64(opt.seed ^ 0x7a697066ull /* "zipf" */));
  const auto count_of = [](double x) { return static_cast<std::size_t>(std::llround(x)); };
  const auto warm_stream = zipf.stream(count_of(plan.nominal_qps * kWarmupSeconds));
  const auto sat_stream = zipf.stream(count_of(plan.nominal_qps * opt.seconds * plan.sat_share));
  const auto fixed_stream = zipf.stream(count_of(plan.rate * opt.seconds * plan.fixed_share));
  const auto churn_stream =
      zipf.stream(count_of(plan.churn_rate * opt.seconds * plan.churn_share));

  // --- setup: load -> first answer, kSetupReps times --------------------------
  // Each repetition builds a fresh stack; the last one serves warm-up,
  // fixed-rate and saturation.
  Stack stack;
  Conn conn;
  std::vector<double> setup_s, load_s, start_ms, first_ms;
  Tally first_tally;
  std::int64_t loaded_at = 0;
  const auto start_stack = [&](Stack* st, Conn* c) {
    {
      Span s("io.load_instance");
      st->instance = std::make_shared<const ErasedInstance>(io::load_instance(snap_path));
    }
    loaded_at = now_ns();
    Span s("serve.start");
    st->service = std::make_unique<serve::QueryService>(serve::make_serve_target(st->instance),
                                                        service_config());
    st->server = std::make_unique<serve::SocketServer>();
    return st->server->start(*st->service, sock_path) && c->connect(sock_path);
  };
  for (int r = 0; r < kSetupReps; ++r) {
    conn.close();
    stack.stop();
    Span phase("setup");
    const std::int64_t t0 = now_ns();
    const bool up = start_stack(&stack, &conn);
    const std::int64_t t2 = now_ns();
    if (!up) {
      std::fprintf(stderr, "volbench: cannot start the server on %s\n", sock_path.c_str());
      return 2;
    }
    {
      const std::uint64_t id = kTagFirst | static_cast<std::uint64_t>(r);
      Span s("serve.first_answer", id);
      ++first_tally.sent;
      serve::Frame f;
      bool got = conn.send(serve::encode_query({id, 0}));
      while (got) {
        got = wait_readable({&conn}, kLostAfterNs) && conn.read_available();
        if (got && conn.next(&f)) break;
      }
      if (!got || f.type != serve::FrameType::Result) {
        ++first_tally.lost;
      } else {
        check_result(f.result, 0, &expected, &first_tally);
      }
    }
    const std::int64_t t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    load_s.push_back(static_cast<double>(loaded_at - t0) * 1e-9);
    start_ms.push_back(ms(t2 - loaded_at));
    first_ms.push_back(ms(t3 - t2));
  }
  release_free_memory();
  print_memory("setup");
  // --- untimed preparation of the churn batches and the mirror ---------------
  std::vector<MutationBatch> batches;
  std::vector<double> mutate_ms;
  std::vector<int> expected_final;
  {
    Span phase("prepare-churn");
    std::optional<ErasedInstance> mirror;
    {
      Span s("io.load_instance");
      mirror.emplace(io::load_instance(snap_path));
    }
    for (int k = 0; k < plan.churn_batches; ++k) {
      batches.push_back(mirror->propose_mutation(
          splitmix64(opt.seed * 0x100000001b3ull + static_cast<std::uint64_t>(k)), 2, 2));
      const std::int64_t t0 = now_ns();
      {
        Span s("graph.mutated");
        mirror.emplace(mirror->mutated(batches.back()));
      }
      mutate_ms.push_back(ms(now_ns() - t0));
    }
    Span s("runtime.run_at_all_nodes");
    expected_final = run_at_all_nodes(mirror->graph(), mirror->ids(),
                                      [&](Execution& e) { return mirror->solve(e); })
                         .output;
  }
  release_free_memory();
  print_memory("prep-churn");

  // The client thread waits on short schedules; keep its timer slack small.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  Tally warm, sat, fixed, churn, verify;
  std::vector<double> poll_ms, poll_bytes;
  std::int64_t poll_failed = 0;
  const auto collect_polls = [&](StatsPoller& p) {
    p.stop();
    poll_ms.insert(poll_ms.end(), p.rtt_ms().begin(), p.rtt_ms().end());
    poll_bytes.insert(poll_bytes.end(), p.bytes().begin(), p.bytes().end());
    poll_failed += p.failed();
  };
  double sat_qps = 0.0;
  std::string final_json;
  {
    StatsPoller poller(sock_path);
    print_thread_budget("warm-up", kServiceThreads, 1, 1, "stats poller sleeps between polls");
    {
      Span phase("warm-up");
      closed_loop(conn, warm_stream, kTagWarm, expected, &warm);
    }
    print_thread_budget("fixed-rate", kServiceThreads, 1, 1, "open loop, absolute schedule");
    {
      Span phase("fixed-rate");
      open_loop(conn, fixed_stream, plan.rate, kTagFixed, &expected, &fixed, nullptr, nullptr,
                nullptr);
    }
    print_thread_budget("saturation", kServiceThreads, 1, 1, "closed loop, 256 in flight");
    {
      Span phase("saturation");
      sat_qps = closed_loop(conn, sat_stream, kTagSat, expected, &sat);
    }
    print_memory("saturation");
    collect_polls(poller);
    Span phase("final-stats");
    serve::ServeClient c;
    Span s("obs.stats");
    if (!c.connect(sock_path) || !c.stats(&final_json)) final_json.clear();
  }

  // Churn on a fresh stack (the service's cost grows with the requests it
  // has served, so the update phase starts from the same state every run):
  // warm-up, then reads beside writes on a second connection, then every
  // node against the mirror's offline labels.
  conn.close();
  stack.stop();
  release_free_memory();
  print_memory("first stack");
  UpdateTally ut;
  {
    Span phase("churn-setup");
    if (!start_stack(&stack, &conn)) {
      std::fprintf(stderr, "volbench: cannot restart the server on %s\n", sock_path.c_str());
      return 2;
    }
  }
  {
    StatsPoller poller(sock_path);
    {
      Span phase("churn-warm-up");
      closed_loop(conn, warm_stream, kTagWarm, expected, &warm);
    }
    Conn upd;
    if (!upd.connect(sock_path)) {
      std::fprintf(stderr, "volbench: cannot open the update connection\n");
      return 2;
    }
    print_thread_budget("churn", kServiceThreads, 2, 1,
                        "the second reader applies each update and is idle between them");
    {
      Span phase("churn");
      open_loop(conn, churn_stream, plan.churn_rate, kTagChurn, nullptr, &churn, &upd, &batches,
                &ut);
    }
    upd.close();
    {
      Span phase("verify");
      std::vector<NodeIndex> all(static_cast<std::size_t>(n));
      for (NodeIndex v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
      closed_loop(conn, all, kTagVerify, expected_final, &verify);
    }
    collect_polls(poller);
  }
  print_memory("verify");
  conn.close();
  stack.stop();

  // Traced pass only: the fixed-rate stream submitted in process to a fresh
  // service that first serves the same warm-up (the state the socket service
  // had at its fixed-rate phase), then the same nodes solved directly, then
  // the codec loop.
  std::vector<double> service_ms, queue_wait_ms;
  double exec_ms_per_request = 0.0, ns_per_probe = 0.0, codec_ns = 0.0;
  Tally service_tally, direct_tally;
  if (g_tracer != nullptr) {
    Stack side;
    side.instance = std::make_shared<const ErasedInstance>(io::load_instance(snap_path));
    side.service = std::make_unique<serve::QueryService>(
        serve::make_serve_target(side.instance), service_config());
    {
      Span phase("service-history");
      inprocess_closed_loop(*side.service, warm_stream, expected, &service_tally);
    }
    print_thread_budget("service-only", kServiceThreads, 0, 1, "QueryService::submit, no socket");
    {
      Span phase("service-only");
      service_ms =
          inprocess_open_loop(*side.service, fixed_stream, plan.rate, expected, &service_tally);
    }
    side.stop();

    Span phase("direct-solve");
    const ErasedInstance inst = io::load_instance(snap_path);
    ExecutionScratch scratch(inst.node_count());
    std::vector<double> solve_ms(fixed_stream.size(), 0.0);
    std::int64_t total_ns = 0, total_queries = 0;
    for (std::size_t i = 0; i < fixed_stream.size(); ++i) {
      const std::int64_t t0 = now_ns();
      int got = 0;
      {
        Span s("lcl.solve", i);
        Execution e(inst.graph(), inst.ids(), fixed_stream[i], 0, scratch);
        got = inst.solve(e);
        total_queries += e.query_count();
      }
      const std::int64_t dt = now_ns() - t0;
      total_ns += dt;
      solve_ms[i] = ms(dt);
      ++direct_tally.sent;
      if (got != expected[static_cast<std::size_t>(fixed_stream[i])]) {
        ++direct_tally.mismatched;
      } else {
        ++direct_tally.ok;
      }
    }
    exec_ms_per_request =
        ms(total_ns) / static_cast<double>(std::max<std::size_t>(fixed_stream.size(), 1));
    ns_per_probe = total_queries > 0
                       ? static_cast<double>(total_ns) / static_cast<double>(total_queries)
                       : 0.0;
    for (std::size_t i = 0; i < fixed_stream.size(); ++i) {
      if (std::isfinite(service_ms[i])) queue_wait_ms.push_back(service_ms[i] - solve_ms[i]);
    }
    Span s("serve.codec");
    codec_ns = codec_ns_per_pair();
  }

  // --- accounting -------------------------------------------------------------
  const Tally* tallies[] = {&prepare, &first_tally, &warm, &sat, &fixed, &churn, &verify,
                            &service_tally, &direct_tally};
  for (const Tally* t : tallies) {
    out->attempted += t->sent;
    out->failed += t->failed();
    if (t->mismatched > 0 || t->invalid > 0 || t->lost > 0) out->correct = false;
  }
  out->attempted += ut.sent + static_cast<std::int64_t>(poll_ms.size()) + poll_failed + 1;
  out->failed += ut.rejected + ut.lost + poll_failed + (final_json.empty() ? 1 : 0);
  if (ut.rejected > 0 || ut.lost > 0 || ut.applied != plan.churn_batches) out->correct = false;
  if (final_json.empty()) out->correct = false;
  std::printf("[serve] %s n=%lld: reads ok %lld shed %lld invalid %lld mismatched %lld lost "
              "%lld; updates applied %lld/%d rejected %lld lost %lld; verify %lld node(s), "
              "%lld wrong\n",
              plan.family, static_cast<long long>(n),
              static_cast<long long>(warm.ok + sat.ok + fixed.ok + churn.ok),
              static_cast<long long>(warm.shed + sat.shed + fixed.shed + churn.shed),
              static_cast<long long>(warm.invalid + sat.invalid + fixed.invalid + churn.invalid),
              static_cast<long long>(warm.mismatched + sat.mismatched + fixed.mismatched +
                                     churn.mismatched),
              static_cast<long long>(warm.lost + sat.lost + fixed.lost + churn.lost),
              static_cast<long long>(ut.applied), plan.churn_batches,
              static_cast<long long>(ut.rejected), static_cast<long long>(ut.lost),
              static_cast<long long>(verify.sent),
              static_cast<long long>(verify.failed()));

  const auto per_second = static_cast<std::size_t>(plan.rate);
  const double p50 = windowed_quantile(fixed.latency_ms, per_second, 0.50);
  const double p90 = windowed_quantile(fixed.latency_ms, per_second, 0.90);
  const double p99 = quantile(fixed.latency_ms, 0.99);
  const double upd_p50 = median(ut.rtt_ms);
  const double setup = median(setup_s);
  std::printf("[serve] setup_s %.6f  sat_qps %.1f (%zu requests)  fixed %.0f/s: p50 %.4f ms "
              "p90 %.4f ms (pooled %.4f / %.4f) p99 %.4f ms (%zu samples, lag p99 %.4f ms)  "
              "update_p50 %.3f ms  churn reads p50 %.4f ms p90 %.4f ms\n",
              setup, sat_qps, sat_stream.size(), plan.rate, p50, p90,
              quantile(fixed.latency_ms, 0.5), quantile(fixed.latency_ms, 0.9), p99,
              fixed.latency_ms.size(), quantile(fixed.lag_ms, 0.99), upd_p50,
              quantile(churn.latency_ms, 0.50), quantile(churn.latency_ms, 0.90));
  // Gated end-to-end metrics.  Throughput and latency did not repeat within
  // a tenth over the steadiness record (volbench/STEADINESS.md), so they are
  // per-layer diagnostics below, under serve.*.
  out->add_e2e("setup_s", setup, "s");
  out->add_e2e("peak_rss_mb", peak_rss_mb(), "MB");

  const StatsView sv = parse_stats(final_json);
  const double service_p50 = quantile(service_ms, 0.50);
  const double sweep_med = median(sweep_s);
  const BatchStats& batch = sweep_stats.batch;
  out->add_layer("lcl.gen_s", median(gen_s), "s");
  out->add_layer("runtime.sweep_s", sweep_med, "s");
  out->add_layer("runtime.ns_per_probe",
                 sweep_stats.total_queries > 0
                     ? sweep_med * 1e9 / static_cast<double>(sweep_stats.total_queries)
                     : 0.0,
                 "ns");
  out->add_layer("runtime.probes", static_cast<double>(sweep_stats.total_queries), "count");
  out->add_layer("runtime.volume", static_cast<double>(sweep_stats.total_volume), "count");
  // Both 0 on serve-leaf, whose plan is not batchable.
  out->add_layer("runtime.batch.occupancy",
                 batch.batches > 0 ? static_cast<double>(batch.batched_starts) /
                                         (static_cast<double>(batch.batches) *
                                          static_cast<double>(BatchedBallExecutor::kMaxBatch))
                                   : 0.0,
                 "ratio");
  out->add_layer("runtime.batch.expanded_nodes", static_cast<double>(batch.expanded_nodes),
                 "count");
  out->add_layer("serve.sat_qps", sat_qps, "1/s");
  out->add_layer("serve.p50_ms", p50, "ms");
  out->add_layer("serve.p90_ms", p90, "ms");
  out->add_layer("serve.update_p50_ms", upd_p50, "ms");
  out->add_layer("io.load_s", median(load_s), "s");
  out->add_layer("serve.start_ms", median(start_ms), "ms");
  out->add_layer("serve.first_answer_ms", median(first_ms), "ms");
  out->add_layer("serve.service_p50_ms", service_p50, "ms");
  out->add_layer("serve.service_p90_ms", quantile(service_ms, 0.90), "ms");
  out->add_layer("serve.transport_p50_ms", p50 - service_p50, "ms");
  out->add_layer("serve.codec_ns", codec_ns, "ns");
  out->add_layer("serve.queue_wait_p50_ms", quantile(queue_wait_ms, 0.50), "ms");
  out->add_layer("serve.requests_per_wave", sv.waves > 0 ? sv.completed / sv.waves : 0.0,
                 "count");
  const double lookups = sv.hits + sv.misses;
  out->add_layer("runtime.cache.hit_ratio", lookups > 0 ? sv.hits / lookups : 0.0, "ratio");
  out->add_layer("runtime.cache.hits", sv.hits, "count");
  out->add_layer("runtime.cache.misses", sv.misses, "count");
  out->add_layer("runtime.cache.evictions", sv.evictions, "count");
  out->add_layer("lcl.exec_ms_per_request", exec_ms_per_request, "ms");
  out->add_layer("lcl.ns_per_probe", ns_per_probe, "ns");
  out->add_layer("graph.mutate_ms", median(mutate_ms), "ms");
  out->add_layer("serve.apply_ms", median(ut.apply_ms), "ms");
  const double touched = static_cast<double>(ut.retained + ut.evicted);
  out->add_layer("runtime.cache.retained_ratio",
                 touched > 0 ? static_cast<double>(ut.retained) / touched : 0.0, "ratio");
  out->add_layer("runtime.cache.flushes", static_cast<double>(ut.flushes), "count");
  out->add_layer("serve.churn_p50_ms", quantile(churn.latency_ms, 0.50), "ms");
  out->add_layer("serve.churn_p90_ms", quantile(churn.latency_ms, 0.90), "ms");
  out->add_layer("serve.p99_ms", p99, "ms");
  out->add_layer("serve.samples", static_cast<double>(fixed.latency_ms.size()), "count");
  out->add_layer("load.lag_p99_ms", quantile(fixed.lag_ms, 0.99), "ms");
  out->add_layer("obs.stats_poll_ms", median(poll_ms), "ms");
  out->add_layer("obs.stats_bytes", median(poll_bytes), "bytes");
  return 0;
}

}  // namespace volbench
