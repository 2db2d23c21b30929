#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/json.h"
#include "util/check.h"

namespace fgp::obs {

namespace {

long long to_ns(double seconds) {
  return std::llround(seconds * 1e9);
}

/// Chrome "ts" is in microseconds; we carry nanosecond integers and print
/// them as fixed-point microseconds, which is deterministic for identical
/// input bits (no double formatting in the hot path of comparisons).
std::string ns_to_us(long long ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", ns / 1000, ns % 1000);
  return buf;
}

}  // namespace

void TraceRecorder::push(Event e) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::span(std::string_view category, std::string_view name,
                         int node, int pass, double begin_s, double end_s) {
  FGP_CHECK_MSG(end_s >= begin_s && begin_s >= 0.0,
                "trace span '" << std::string(name)
                               << "' has out-of-order timestamps");
  Event e;
  e.kind = Kind::Span;
  e.category = std::string(category);
  e.name = std::string(name);
  e.node = node;
  e.pass = pass;
  e.begin_ns = to_ns(begin_s);
  e.end_ns = to_ns(end_s);
  push(std::move(e));
}

void TraceRecorder::detail(std::string_view category, std::string_view name,
                           int node, int pass, double begin_s, double end_s) {
  FGP_CHECK_MSG(end_s >= begin_s && begin_s >= 0.0,
                "trace detail '" << std::string(name)
                                 << "' has out-of-order timestamps");
  Event e;
  e.kind = Kind::Detail;
  e.category = std::string(category);
  e.name = std::string(name);
  e.node = node;
  e.pass = pass;
  e.begin_ns = to_ns(begin_s);
  e.end_ns = to_ns(end_s);
  push(std::move(e));
}

void TraceRecorder::host_span(std::string_view category, std::string_view name,
                              double begin_s, double end_s) {
  if (!host_enabled_) return;
  Event e;
  e.kind = Kind::Host;
  e.category = std::string(category);
  e.name = std::string(name);
  e.node = kJobNode;
  e.pass = -1;
  e.begin_ns = to_ns(std::max(0.0, begin_s));
  e.end_ns = to_ns(std::max(begin_s, end_s));
  push(std::move(e));
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
}

std::string TraceRecorder::to_chrome_json(bool include_host) const {
  // Snapshot under the lock, then export without it.
  std::vector<Event> events;
  {
    std::lock_guard lock(mu_);
    events = events_;
  }
  if (!include_host) {
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const Event& e) {
                                  return e.kind == Kind::Host;
                                }),
                 events.end());
  }

  // --- Track assignment -------------------------------------------------
  // pid: 0 = job-level virtual spans, node+1 = per-node virtual spans,
  // kHostPid = host wall-clock. tid: index of the track name in the sorted
  // set of names used on that pid — a pure function of the event set, so
  // the export is canonical.
  struct TrackKey {
    int pid;
    std::string name;
    bool operator<(const TrackKey& o) const {
      return std::tie(pid, name) < std::tie(o.pid, o.name);
    }
  };
  const auto track_of = [](const Event& e) {
    TrackKey k;
    if (e.kind == Kind::Host) {
      k.pid = kHostPid;
      k.name = e.category;
    } else {
      k.pid = e.node == kJobNode ? 0 : e.node + 1;
      k.name = e.kind == Kind::Detail ? e.category + "/detail" : e.category;
    }
    return k;
  };

  std::map<TrackKey, std::vector<const Event*>> tracks;
  for (const Event& e : events) tracks[track_of(e)].push_back(&e);

  std::map<int, std::map<std::string, int>> tids;  // pid -> name -> tid
  for (const auto& [key, unused] : tracks) {
    auto& names = tids[key.pid];
    (void)unused;
    if (names.find(key.name) == names.end()) {
      const int tid = static_cast<int>(names.size());
      names.emplace(key.name, tid);
    }
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"fgpred-trace-v1\",\n";
  os << "  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"traceEvents\": [";
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    os << (first ? "\n    " : ",\n    ") << line;
    first = false;
  };

  // Metadata: process and thread names, in (pid, tid) order.
  for (const auto& [pid, names] : tids) {
    std::string pname;
    if (pid == 0)
      pname = "job (virtual time)";
    else if (pid == kHostPid)
      pname = "host (wall clock)";
    else
      pname = "node " + std::to_string(pid - 1) + " (virtual time)";
    emit("{\"ph\": \"M\", \"pid\": " + std::to_string(pid) +
         ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"" +
         json::escape(pname) + "\"}}");
    std::vector<std::pair<int, std::string>> by_tid;
    for (const auto& [name, tid] : names) by_tid.emplace_back(tid, name);
    std::sort(by_tid.begin(), by_tid.end());
    for (const auto& [tid, name] : by_tid)
      emit("{\"ph\": \"M\", \"pid\": " + std::to_string(pid) + ", \"tid\": " +
           std::to_string(tid) + ", \"name\": \"thread_name\", \"args\": "
           "{\"name\": \"" + json::escape(name) + "\"}}");
  }

  const auto args_of = [](const Event& e) {
    std::string a = "{";
    if (e.pass >= 0) a += "\"pass\": " + std::to_string(e.pass);
    a += "}";
    return a;
  };

  // Span events, one track at a time (tracks iterate in canonical order).
  for (auto& [key, list] : tracks) {
    const int pid = key.pid;
    const int tid = tids[pid][key.name];
    const std::string head = "\"pid\": " + std::to_string(pid) +
                             ", \"tid\": " + std::to_string(tid);

    const bool complete_events =
        !list.empty() && list.front()->kind != Kind::Span;
    // Canonical in-track order: outer spans before inner at equal begins.
    std::sort(list.begin(), list.end(), [](const Event* a, const Event* b) {
      return std::tie(a->begin_ns, b->end_ns, a->name, a->pass) <
             std::tie(b->begin_ns, a->end_ns, b->name, b->pass);
    });

    long long prev_ts = -1;
    const auto bump = [&prev_ts](long long ts) {
      // Strictly increasing per-track timestamps: deterministic 1 ns
      // tie-breaks (fgptrace --validate enforces the invariant).
      const long long out = ts <= prev_ts ? prev_ts + 1 : ts;
      prev_ts = out;
      return out;
    };

    if (complete_events) {
      // Detail/host spans: Chrome "X" complete events.
      for (const Event* e : list) {
        const long long b = bump(e->begin_ns);
        const long long dur = std::max(0LL, e->end_ns - e->begin_ns);
        emit("{\"ph\": \"X\", " + head + ", \"ts\": " + ns_to_us(b) +
             ", \"dur\": " + ns_to_us(dur) + ", \"name\": \"" +
             json::escape(e->name) + "\", \"cat\": \"" +
             json::escape(e->category) + "\", \"args\": " + args_of(*e) + "}");
      }
      continue;
    }

    // Nested spans: balanced B/E pairs via an explicit open-span stack.
    std::vector<const Event*> stack;
    const auto emit_end = [&](const Event* e) {
      emit("{\"ph\": \"E\", " + head + ", \"ts\": " + ns_to_us(bump(e->end_ns)) +
           "}");
    };
    for (const Event* e : list) {
      while (!stack.empty() && stack.back()->end_ns <= e->begin_ns) {
        emit_end(stack.back());
        stack.pop_back();
      }
      emit("{\"ph\": \"B\", " + head + ", \"ts\": " + ns_to_us(bump(e->begin_ns)) +
           ", \"name\": \"" + json::escape(e->name) + "\", \"cat\": \"" +
           json::escape(e->category) + "\", \"args\": " + args_of(*e) + "}");
      stack.push_back(e);
    }
    while (!stack.empty()) {
      emit_end(stack.back());
      stack.pop_back();
    }
  }

  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace fgp::obs
