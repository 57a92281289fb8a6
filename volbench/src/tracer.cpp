#include "tracer.hpp"

#include <algorithm>
#include <fstream>

#include "common.hpp"

namespace volbench {

Tracer* g_tracer = nullptr;

namespace {

struct OpenSpan {
  int name = 0;
  std::int64_t record = -1;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
};

// Per-thread stack of open spans; stack[0] is the thread's current phase.
struct ThreadState {
  const Tracer* tracer = nullptr;
  int tid = -1;
  std::int64_t phase_key = -1;
  std::vector<OpenSpan> stack;
};

thread_local ThreadState t_state;

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

int Tracer::intern(const char* name) {
  std::lock_guard lock(mu_);
  const auto it = by_ptr_.find(name);
  if (it != by_ptr_.end()) return it->second;
  const std::string s(name);
  auto sit = by_str_.find(s);
  int id = 0;
  if (sit == by_str_.end()) {
    id = static_cast<int>(names_.size());
    names_.push_back(s);
    by_str_.emplace(s, id);
  } else {
    id = sit->second;
  }
  by_ptr_.emplace(name, id);
  return id;
}

int Tracer::intern(const std::string& name) {
  std::lock_guard lock(mu_);
  const auto it = by_str_.find(name);
  if (it != by_str_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  by_str_.emplace(name, id);
  return id;
}

int Tracer::thread_id() {
  std::lock_guard lock(mu_);
  return threads_++;
}

std::int64_t Tracer::open(int name, int tid, std::int64_t parent, std::uint64_t req,
                          std::int64_t start_ns, bool is_phase, std::int64_t* phase_key) {
  std::lock_guard lock(mu_);
  if (is_phase) {
    Phase p;
    p.name = name;
    p.tid = tid;
    phases_.push_back(std::move(p));
    *phase_key = static_cast<std::int64_t>(phases_.size()) - 1;
  }
  if (records_.size() >= kSpanCap) {
    ++dropped_;
    return -1;
  }
  Record r;
  r.name = name;
  r.tid = tid;
  r.parent = parent;
  r.req = req;
  r.start_ns = start_ns;
  records_.push_back(r);
  return static_cast<std::int64_t>(records_.size()) - 1;
}

void Tracer::close(std::int64_t record, std::int64_t phase_key, bool is_phase, int name,
                   std::int64_t start_ns, std::int64_t end_ns, std::int64_t self_ns) {
  std::lock_guard lock(mu_);
  if (record >= 0) records_[static_cast<std::size_t>(record)].end_ns = end_ns;
  Phase& p = phases_[static_cast<std::size_t>(phase_key)];
  if (is_phase) {
    p.wall_ns = end_ns - start_ns;
    p.residual_ns = self_ns;
    p.closed = true;
  } else {
    NameTotals& t = p.by_name[name];
    t.self_ns += self_ns;
    ++t.count;
  }
}

void Span::begin(int name, std::uint64_t req) {
  Tracer* tr = g_tracer;
  ThreadState& st = t_state;
  if (st.tracer != tr) {  // first span of this thread under this tracer
    st.tracer = tr;
    st.tid = tr->thread_id();
    st.stack.clear();
  }
  const bool is_phase = st.stack.empty();
  const std::int64_t parent = is_phase ? -1 : st.stack.back().record;
  const std::int64_t start = now_ns();
  const std::int64_t rec = tr->open(name, st.tid, parent, req, start, is_phase, &st.phase_key);
  st.stack.push_back({name, rec, start, 0});
  on_ = true;
}

Span::Span(const char* name, std::uint64_t req) {
  if (g_tracer != nullptr) begin(g_tracer->intern(name), req);
}

Span::Span(const std::string& name, std::uint64_t req) {
  if (g_tracer != nullptr) begin(g_tracer->intern(name), req);
}

Span::~Span() {
  if (!on_) return;
  ThreadState& st = t_state;
  const OpenSpan top = st.stack.back();
  st.stack.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - top.start_ns;
  const bool is_phase = st.stack.empty();
  if (!is_phase) st.stack.back().child_ns += dur;
  g_tracer->close(top.record, st.phase_key, is_phase, top.name, top.start_ns, end,
                  dur - top.child_ns);
}

bool Tracer::print_layer_tables(std::FILE* out) const {
  std::lock_guard lock(mu_);
  bool sums_ok = true;
  for (const Phase& p : phases_) {
    if (!p.closed) continue;
    std::map<std::string, std::int64_t> by_layer;
    std::int64_t sum = p.residual_ns;
    for (const auto& [name, t] : p.by_name) {
      by_layer[layer_of(names_[static_cast<std::size_t>(name)])] += t.self_ns;
      sum += t.self_ns;
    }
    const double wall = static_cast<double>(p.wall_ns) * 1e-9;
    std::fprintf(out, "[layers] phase %-22s thread %d  wall %.6f s\n",
                 names_[static_cast<std::size_t>(p.name)].c_str(), p.tid, wall);
    auto row = [&](const std::string& label, std::int64_t ns) {
      std::fprintf(out, "[layers]   %-34s %12.6f s %6.2f%%\n", label.c_str(),
                   static_cast<double>(ns) * 1e-9,
                   p.wall_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                       static_cast<double>(p.wall_ns)
                                 : 0.0);
    };
    for (const auto& [layer, ns] : by_layer) row(layer, ns);
    row("residual", p.residual_ns);
    for (const auto& [name, t] : p.by_name) {
      std::fprintf(out, "[layers]     span %-28s %12.6f s  x%lld\n",
                   names_[static_cast<std::size_t>(name)].c_str(),
                   static_cast<double>(t.self_ns) * 1e-9,
                   static_cast<long long>(t.count));
    }
    const bool ok = sum == p.wall_ns;
    sums_ok = sums_ok && ok;
    std::fprintf(out, "[layers]   %-34s %12.6f s  (%s wall)\n", "sum", static_cast<double>(sum) * 1e-9,
                 ok ? "equals" : "DIFFERS FROM");
  }
  return sums_ok;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  std::int64_t origin = 0;
  if (!records_.empty()) {
    origin = records_.front().start_ns;
    for (const Record& r : records_) origin = std::min(origin, r.start_ns);
  }
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  char buf[256];
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns == 0) continue;  // still open when written
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %lld, "
                  "\"req\": %llu}}",
                  first ? "" : ",", names_[static_cast<std::size_t>(r.name)].c_str(), r.tid,
                  static_cast<double>(r.start_ns - origin) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                  static_cast<long long>(r.parent), static_cast<unsigned long long>(r.req));
    os << buf;
    first = false;
  }
  os << "\n], \"otherData\": {\"spans_dropped\": " << dropped_ << "}}\n";
  return static_cast<bool>(os);
}

std::size_t Tracer::spans_kept() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

std::int64_t Tracer::spans_dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

}  // namespace volbench
