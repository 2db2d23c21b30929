// trace.h — the virtual-time trace recorder.
//
// The runtime's phase engine computes exactly where a job's virtual time
// goes (T_exec = T_disk + T_network + T_compute(T_ro, T_g)); this recorder
// captures that decomposition as a per-node, per-pass event sequence that
// loads directly in Perfetto / chrome://tracing.
//
// Two clock domains (DESIGN.md §12):
//
//   virtual  deterministic timestamps derived from the phase engine. The
//            exported JSON is a pure function of the recorded span set, so
//            with a fixed seed it is byte-identical across the serial
//            runtime and any host pool size (tests/test_obs.cpp).
//   host     real wall-clock spans (util::Stopwatch — the sanctioned
//            clock), off by default and emitted on a segregated "host"
//            process so `to_chrome_json(false)` (and `fgptrace --diff`)
//            can strip them before byte comparison.
//
// Recording defaults to *off* everywhere: hot paths hold a
// `TraceRecorder*` that is nullptr unless the caller opts in, so the only
// cost of the subsystem on an untraced run is a pointer test.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/wallclock.h"

namespace fgp::obs {

/// Track-level constants for the Chrome-trace export: virtual job-level
/// spans live on pid 0, per-node spans on pid node+1, host spans on a
/// far-away pid so they are visually and mechanically separable.
inline constexpr int kJobNode = -1;
inline constexpr int kHostPid = 10000;

class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// Opt into recording host wall-clock spans (default: dropped).
  void enable_host(bool on) { host_enabled_ = on; }
  bool host_enabled() const { return host_enabled_; }

  /// Records a virtual-time span. `node` is a compute-node index or
  /// kJobNode for job-level phases; `pass` < 0 means "no pass" (omitted
  /// from args). Spans on one (node, category) track must properly nest
  /// or be disjoint — the runtime's phase layout guarantees this.
  /// Thread-safe; throws util::Error on begin/end out of order.
  void span(std::string_view category, std::string_view name, int node,
            int pass, double begin_s, double end_s);

  /// Records a fine-grained virtual span (e.g. one chunk block) exported
  /// as a Chrome "X" complete event on the `<category>/detail` track of
  /// its node, keeping the B/E tracks strictly monotonic.
  void detail(std::string_view category, std::string_view name, int node,
              int pass, double begin_s, double end_s);

  /// Records a host wall-clock span (seconds relative to host_now()'s
  /// epoch). Dropped unless enable_host(true).
  void host_span(std::string_view category, std::string_view name,
                 double begin_s, double end_s);

  /// Seconds since this recorder was constructed (host clock epoch).
  double host_now() const { return epoch_.seconds(); }

  std::size_t event_count() const;
  void clear();

  /// Exports the trace as Chrome-trace-event JSON (object format, schema
  /// "fgpred-trace-v1"). The output is canonically ordered and therefore
  /// deterministic; `include_host` = false drops every host-domain event
  /// (byte-comparison mode).
  std::string to_chrome_json(bool include_host = true) const;

 private:
  enum class Kind { Span, Detail, Host };
  struct Event {
    Kind kind = Kind::Span;
    std::string category;
    std::string name;
    int node = kJobNode;
    int pass = -1;
    long long begin_ns = 0;
    long long end_ns = 0;
  };

  void push(Event e);

  mutable std::mutex mu_;
  std::vector<Event> events_;
  bool host_enabled_ = false;
  util::Stopwatch epoch_;
};

/// RAII host span: stamps begin on construction and records on
/// destruction. A null recorder (or host recording disabled) makes this a
/// no-op beyond one branch.
class HostSpan {
 public:
  HostSpan(TraceRecorder* rec, std::string_view category,
           std::string_view name)
      : rec_(rec != nullptr && rec->host_enabled() ? rec : nullptr),
        category_(category),
        name_(name),
        begin_(rec_ != nullptr ? rec_->host_now() : 0.0) {}

  ~HostSpan() {
    if (rec_ != nullptr)
      rec_->host_span(category_, name_, begin_, rec_->host_now());
  }

  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  TraceRecorder* rec_;
  std::string category_;
  std::string name_;
  double begin_;
};

}  // namespace fgp::obs
