// harness.h — the workload interface and shared measuring tools of the
// end-to-end benchmark.
//
// A run measures one workload in its own process. main.cpp drives every
// workload through the same sequence: set up (several times, median), build
// a serial reference, warm up, then time operations back to back for the
// requested seconds, checking each operation's output against the
// reference. A traced run (--trace 1) instead records host spans around
// every layer call and derives per-layer numbers from them (see
// attribution.h).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "freeride/reduction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repository/dataset.h"
#include "util/thread_pool.h"
#include "util/wallclock.h"

namespace fgp::perfbench {

/// Observability sinks of a traced operation; null members mean "off".
struct Hooks {
  obs::TraceRecorder* trace = nullptr;
  obs::Registry* metrics = nullptr;
};

/// Named numbers a run prints, each with its unit: metrics for the result
/// line, facts (the workload's numbers under their paper-facing names) for
/// the report line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> facts;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fact(const std::string& name, double value, const std::string& unit) {
    facts[name] = {value, unit};
  }
};

/// Wall seconds of the timed parts of one set-up.
struct SetupTimes {
  double datagen_s = 0.0;
  /// The catalog's bulk load; only workloads that serve queries have one.
  std::optional<double> register_replicas_s;
};

/// The kmeans data a workload holds, for the layer probes every traced run
/// makes (kernel rate, runtime and profile runs, predictor, scans, store).
struct ProbeTarget {
  const bench::BenchApp* app = nullptr;  ///< in-memory kmeans app
  /// The dataset the workload's jobs read (a streamed view for ooc-stream;
  /// the app's own dataset otherwise).
  const repository::ChunkedDataset* job_dataset = nullptr;
  /// The in-memory twin of job_dataset (what a store saves).
  const repository::ChunkedDataset* resident_job = nullptr;
  sim::ClusterSpec cluster;
  sim::WanSpec wan;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds every input from the seed. May be called several times; each
  /// call replaces the previous inputs.
  virtual SetupTimes setup() = 0;

  /// Computes the serial reference the operations are checked against.
  virtual void build_reference() = 0;

  /// One operation. With `hooks` non-null the operation records host spans
  /// around each layer call and feeds the hooks' metrics registry. Returns
  /// the wall seconds of the request a user waits on: the whole operation,
  /// or select-serve's query batch.
  virtual double op(const Hooks* hooks) = 0;

  /// True when the last op()'s output equals the reference.
  virtual bool check() = 0;

  /// The same operation with every layer serial (no pool).
  virtual void serial_op() = 0;

  /// Called once before the traced operations: opens whatever views the
  /// traced operations need so they record into `hooks`.
  virtual void prepare_tracing(const Hooks& hooks) { (void)hooks; }

  /// The workload's numbers under their paper-facing names, as report
  /// facts, from the request seconds of the timed operations.
  virtual void report(Report& out, const std::vector<double>& request_s) = 0;

  /// Per-layer numbers only the workload itself can count, from its
  /// traced operations.
  virtual void report_traced(Report& out) { (void)out; }

  virtual ProbeTarget probe_target() const = 0;

  /// Traced operations to record at most (keeps the trace export small).
  virtual std::size_t max_traced_ops() const = 0;
};

struct WorkloadContext {
  std::uint64_t seed = 0;
  util::ThreadPool* pool = nullptr;
  std::filesystem::path work_dir;  ///< scratch space, removed on exit
};

std::unique_ptr<Workload> make_fig_sweep(const WorkloadContext& ctx);
std::unique_ptr<Workload> make_ooc_stream(const WorkloadContext& ctx);
std::unique_ptr<Workload> make_select_serve(const WorkloadContext& ctx);
/// select-serve at 4,000 datasets and 16 distinct batches: the service
/// probe traced runs of the other workloads use for the service layer.
std::unique_ptr<Workload> make_service_probe(const WorkloadContext& ctx);

// --- statistics ---------------------------------------------------------

/// Linear-interpolation quantile of `v` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs fn() `reps` times and returns the median wall seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const util::Stopwatch sw;
    fn();
    s.push_back(sw.seconds());
  }
  return median(std::move(s));
}

// --- host facts ---------------------------------------------------------

/// CPUs this process may run on (affinity mask), at least 1.
unsigned host_cores();
/// Peak resident set of this process in MB (getrusage), 0 if unavailable.
double peak_rss_mb();

// --- layer decorators (traced runs only) --------------------------------

/// Forwards every call to `inner`, recording an "apps" host span around
/// each kernel call.
std::unique_ptr<freeride::ReductionKernel> traced_kernel(
    std::unique_ptr<freeride::ReductionKernel> inner,
    obs::TraceRecorder* trace);

/// A copy of `ds` whose chunk fetches and prefetches record "repository"
/// host spans (the dataset must be streamed).
repository::ChunkedDataset traced_source_view(
    const repository::ChunkedDataset& ds, obs::TraceRecorder* trace);

/// `base` replicated `factor` times under `name`: replica chunks alias the
/// base payload slabs, so only a saved copy grows.
repository::ChunkedDataset replicate_dataset(
    const repository::ChunkedDataset& base, std::size_t factor,
    const std::string& name);

/// The job every workload runs: `app`'s kernel over `ds` at (n, c).
freeride::JobSetup job_setup(const repository::ChunkedDataset& ds,
                             const sim::ClusterSpec& cluster,
                             const sim::WanSpec& wan, int n, int c);

// --- output digests -----------------------------------------------------

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Bytes of a run's outcome: every timing double and the serialized
/// reduction object. Equal bytes mean a bit-identical run.
std::string run_bytes(const freeride::RunResult& r);

/// Runs the layer probes on `target` and records their per-layer metrics.
void run_probes(const ProbeTarget& target, util::ThreadPool* pool,
                const std::filesystem::path& work_dir, Report& out);

}  // namespace fgp::perfbench
