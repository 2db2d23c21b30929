// metrics.h — the named-metric registry of the observability layer.
//
// Counters, gauges and histograms live in one of two domains:
//
//   Deterministic  values derived purely from virtual-cluster state
//                  (bytes over a WAN pipe, chunks served per cache tier,
//                  per-phase virtual-time histograms). The determinism
//                  contract (DESIGN.md §12): deterministic-domain doubles
//                  must be recorded from deterministic program points in a
//                  deterministic order, OR be integral increments (integer
//                  sums are exact and order-independent below 2^53), so a
//                  snapshot is byte-identical across host pool sizes.
//   Host           wall-clock and host-machine facts (pool steal counts,
//                  IO wall time). Segregated in the snapshot so tooling
//                  can strip them before byte comparison.
//
// The registry is thread-safe; recording into it is cheap but not free, so
// hot paths hold a `Registry*` that defaults to nullptr (recording off).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace fgp::obs {

enum class Domain { Deterministic, Host };

/// Log10-bucketed histogram: decade boundaries from 1e-9 to 1e4 seconds
/// (or whatever unit the caller observes), plus an overflow bucket.
struct Histogram {
  static constexpr int kBuckets = 15;  ///< le 1e-9 .. le 1e4, then +inf
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void observe(double v);
  /// Upper bound of bucket `i` (the last bucket is +inf).
  static double upper_bound(int i);
};

class Registry {
 public:
  /// Counter: accumulates. Concurrent deterministic-domain use is only
  /// byte-stable for integral increments (see header comment).
  void add(std::string_view name, double v,
           Domain domain = Domain::Deterministic);

  /// Gauge: last write wins.
  void set(std::string_view name, double v,
           Domain domain = Domain::Deterministic);

  /// Gauge keeping the maximum of all writes.
  void set_max(std::string_view name, double v,
               Domain domain = Domain::Deterministic);

  /// Histogram observation.
  void observe(std::string_view name, double v,
               Domain domain = Domain::Deterministic);

  /// Reads a counter/gauge value back (0 when absent). Deterministic
  /// domain only — meant for tests and report glue, not hot paths.
  double value(std::string_view name) const;

  /// Same read-back for the host domain (0 when absent).
  double host_value(std::string_view name) const;

  /// Snapshot as canonical JSON (schema "fgpred-metrics-v1"): metrics
  /// sorted by name within each domain; `include_host` = false drops the
  /// host section entirely (byte-comparison mode).
  std::string to_json(bool include_host = true) const;

  void clear();

 private:
  enum class Kind { Counter, Gauge, Hist };
  struct Metric {
    Kind kind = Kind::Counter;
    double value = 0.0;
    Histogram hist;
  };

  Metric& metric_locked(Domain domain, std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Metric, std::less<>> det_;
  std::map<std::string, Metric, std::less<>> host_;
};

}  // namespace fgp::obs
