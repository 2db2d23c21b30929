// service_perf.cpp — throughput benchmark for the prediction service,
// tracked in BENCH_service.json at the repo root.
//
// The runner builds a synthetic grid at service scale — a ShardedCatalog
// holding a million-entry replica table (a quarter million datasets at
// 1–4 replicas each) over a dozen compute sites — registers the paper's
// application mix with the SelectionService, and hammers query_batch with
// thousands of seeded mixed queries: random dataset, random size, random
// top_k, three apps. It measures end-to-end queries/sec for a ladder of
// evaluate-phase modes (serial, then pool sizes doubling from 1 up to the
// host core count), after first cross-checking that every ladder rung
// returns bit-identical rankings to the serial reference (DESIGN.md §16 —
// a pool that changed an answer must fail the run, not get timed).
//
// Memory discipline: the catalog is immutable during the query storm, so
// the resident set after warmup must not grow while millions of queries
// stream through — the report records RSS after build, after warmup and
// after the full ladder so regressions show up in bench_diff.
//
// Observability (PR 9): before timing, every ladder rung re-runs one
// stream with the *full* observer set attached — per-query tracing, the
// slow-query log, the HDR latency recorder, a deterministically-fed
// residual drift monitor and a per-batch snapshot ring — and its
// deterministic-domain exports are byte-compared against the serial
// instrumented reference (DESIGN.md §17). The timed streams then carry
// only the lightweight HDR latency recorder, so the ladder's
// queries/sec stays comparable with earlier baselines while each rung
// also reports p50/p99 query latency.
//
// Usage: service_perf [--quick] [--out <path>] [--metrics-out <path>]
//                     [--config <path>] [--trace-out <path>]
//                     [--slowlog-out <path>] [--drift-out <path>]
//                     [--snapshots-out <path>] [--latency-out <path>]
//   --quick         small catalog + short repetitions (CI smoke)
//   --out           write the JSON report to <path> instead of stdout
//   --metrics-out   write the service's obs::Registry snapshot
//                   (fgpred-metrics-v1, validatable by fgptrace --validate)
//   --config        read a service::ServiceConfig JSON (shard count,
//                   slow-query threshold, ...)
//   --trace-out     write the instrumented reference pass's trace
//                   (fgpred-trace-v1)
//   --slowlog-out   write its slow-query log (fgpred-slowlog-v1)
//   --drift-out     write its drift-monitor state (fgpred-drift-v1)
//   --snapshots-out write its snapshot ring (fgpred-snapshots-v1)
//   --latency-out   write the per-rung latency quantile report
//                   (fgpred-servicelat-v1, the BENCH_servicelat.json feed)
//
// Wall-clock readings go through util::Stopwatch, the single sanctioned
// clock access point (fgpcheck's wall-clock rule bans the rest in src/).
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "core/ipc_probe.h"
#include "obs/drift.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/snapshot_ring.h"
#include "obs/trace.h"
#include "service/config.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/wallclock.h"

namespace fgp::bench {
namespace {

/// Current resident set size in bytes via /proc/self/statm (0 where the
/// proc filesystem or sysconf is unavailable).
double resident_bytes() {
#if defined(__unix__)
  std::ifstream statm("/proc/self/statm");
  std::uint64_t vm_pages = 0;
  std::uint64_t rss_pages = 0;
  if (!(statm >> vm_pages >> rss_pages)) return 0.0;
  return static_cast<double>(rss_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE));
#else
  return 0.0;
#endif
}

/// A synthetic profile of the right shape for the service (the bench
/// measures selection throughput, not model accuracy, so the timing
/// breakdown only has to satisfy the Predictor's validity checks).
core::Profile synthetic_profile(const std::string& app, double t_compute) {
  core::Profile p;
  p.app = app;
  p.config.data_nodes = 2;
  p.config.compute_nodes = 4;
  p.config.dataset_bytes = 350e6;
  p.config.bandwidth_Bps = 1e7;
  p.config.data_cluster = "pentium-myrinet";
  p.config.compute_cluster = "pentium-myrinet";
  p.t_disk = 30.0;
  p.t_network = 60.0;
  p.t_compute = t_compute;
  p.t_ro = 5.0;
  p.t_g = 3.0;
  p.object_bytes = 64e3;
  p.passes = 5;
  return p;
}

struct Workload {
  std::unique_ptr<service::ShardedCatalog> catalog;
  std::vector<service::SelectionQuery> queries;
  std::size_t datasets = 0;
  std::size_t batch_size = 0;
};

std::string dataset_name(std::size_t i) { return "ds-" + std::to_string(i); }

/// Builds the service-scale grid: repositories and compute sites with a
/// sparse link mesh, then the replica table in one bulk registration (the
/// path a real catalog import takes).
Workload build_workload(const service::ServiceConfig& config, bool quick) {
  Workload w;
  // Full mode: 400k datasets at 1–4 replicas (mean 2.5) = 1,000,000
  // replica entries.
  w.datasets = quick ? 20000 : 400000;
  w.batch_size = quick ? 128 : 256;
  const std::size_t num_queries = quick ? 1024 : 4096;

  w.catalog = std::make_unique<service::ShardedCatalog>(
      static_cast<std::size_t>(config.shards));
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();
  for (int r = 0; r < 8; ++r)
    w.catalog->register_repository_site(
        {"repo-" + std::to_string(r), pentium, 8});
  for (int c = 0; c < 12; ++c)
    w.catalog->register_compute_site(
        {"hpc-" + std::to_string(c), c % 2 == 0 ? pentium : opteron, 16});
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 12; ++c)
      if ((r + c) % 4 != 0)  // leave some repository/site pairs unreachable
        w.catalog->register_link("repo-" + std::to_string(r),
                                 "hpc-" + std::to_string(c),
                                 sim::wan_mbps(10.0 + 5.0 * ((r + 3 * c) % 9)));

  std::vector<grid::Replica> replicas;
  replicas.reserve(w.datasets * 5 / 2);
  for (std::size_t d = 0; d < w.datasets; ++d) {
    const int copies = 1 + static_cast<int>(d % 4);  // mean 2.5 replicas
    for (int r = 0; r < copies; ++r)
      replicas.push_back({dataset_name(d),
                          "repo-" + std::to_string((d + 3 * r) % 8),
                          1 << (d % 3)});
  }
  w.catalog->register_replicas(std::move(replicas));

  util::Rng rng(20260808);
  const char* apps[] = {"em", "kmeans", "knn"};
  w.queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    service::SelectionQuery q;
    q.app = apps[rng.next_below(3)];
    q.dataset = dataset_name(rng.next_below(w.datasets));
    q.dataset_bytes = rng.uniform(100e6, 4e9);
    q.top_k = 1 + static_cast<int>(rng.next_below(8));
    w.queries.push_back(std::move(q));
  }
  return w;
}

void register_apps(service::SelectionService& svc) {
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.ipc = core::measure_ipc(sim::cluster_pentium_myrinet());
  const std::map<std::string, core::ScalingFactors> scalers = {
      {"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};
  svc.register_app(synthetic_profile("em", 100.0), opts, scalers);
  svc.register_app(synthetic_profile("kmeans", 80.0), opts, scalers);
  auto knn_opts = opts;
  knn_opts.classes.ro = core::RoSizeClass::LinearWithData;
  svc.register_app(synthetic_profile("knn", 140.0), knn_opts, scalers);
}

/// Streams the whole query set through the service in fixed-size batches.
/// Returns total queries answered (for the throughput denominator).
std::size_t run_stream(const service::SelectionService& svc,
                       const Workload& w,
                       std::vector<service::SelectionResult>* sink) {
  std::size_t answered = 0;
  for (std::size_t off = 0; off < w.queries.size(); off += w.batch_size) {
    const std::size_t n = std::min(w.batch_size, w.queries.size() - off);
    auto results = svc.query_batch({w.queries.data() + off, n});
    answered += results.size();
    if (sink != nullptr)
      sink->insert(sink->end(), std::make_move_iterator(results.begin()),
                   std::make_move_iterator(results.end()));
  }
  return answered;
}

void check_bit_identical(const std::vector<service::SelectionResult>& got,
                         const std::vector<service::SelectionResult>& ref,
                         std::size_t pool_threads) {
  FGP_CHECK_MSG(got.size() == ref.size(),
                "pool=" << pool_threads << " answered " << got.size()
                        << " queries, serial answered " << ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = ref[i];
    FGP_CHECK_MSG(a.error == b.error && a.ranked.size() == b.ranked.size() &&
                      a.candidates_considered == b.candidates_considered,
                  "pool=" << pool_threads << " diverged on query " << i);
    for (std::size_t j = 0; j < a.ranked.size(); ++j) {
      const bool same =
          a.ranked[j].predicted.disk == b.ranked[j].predicted.disk &&
          a.ranked[j].predicted.network == b.ranked[j].predicted.network &&
          a.ranked[j].predicted.compute == b.ranked[j].predicted.compute &&
          a.ranked[j].candidate.compute_site ==
              b.ranked[j].candidate.compute_site &&
          a.ranked[j].candidate.compute_nodes ==
              b.ranked[j].candidate.compute_nodes &&
          a.ranked[j].candidate.replica.repository ==
              b.ranked[j].candidate.replica.repository;
      FGP_CHECK_MSG(same, "pool=" << pool_threads
                                  << " ranking not bit-identical at query "
                                  << i << " rank " << j);
    }
  }
}

struct LadderRung {
  std::size_t pool_threads = 0;  ///< 0 = serial evaluate phase
  double seconds_per_stream = 0.0;
  double queries_per_second = 0.0;
  double p50_s = 0.0;  ///< per-query latency quantiles from the timed
  double p99_s = 0.0;  ///< streams (obs::HdrHistogram, <= ~3.1% error)
  std::string latency_json;  ///< full HDR export for the latency report
};

const char* rung_mode(const LadderRung& r) {
  return r.pool_threads == 0 ? "serial" : "pool";
}

/// One full stream with every observer attached. The deterministic-domain
/// exports (`*_det`) must come back byte-identical from every ladder rung
/// (DESIGN.md §17); the full exports feed the --trace-out/--slowlog-out/
/// --drift-out/--snapshots-out artifacts from the serial reference rung.
struct InstrumentedRun {
  std::string metrics_det;
  std::string trace_det;
  std::string drift_det;
  std::string snapshots_det;
  std::string trace_full;
  std::string slowlog_full;
  std::string drift_full;
  std::string snapshots_full;
  std::uint64_t latency_count = 0;
};

InstrumentedRun run_instrumented(const Workload& w,
                                 const service::ServiceConfig& config,
                                 util::ThreadPool* pool) {
  obs::Registry registry;
  service::SelectionService svc(w.catalog.get(), pool, &registry);
  register_apps(svc);

  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::SlowQueryLog slowlog(config.slow_query_threshold_s,
                            static_cast<std::size_t>(config.slowlog_capacity));
  obs::HdrHistogram latency;
  service::ServiceObservers observers;
  observers.trace = &trace;
  observers.slowlog = &slowlog;
  observers.latency = &latency;
  svc.set_observers(observers);

  // The drift monitor wants predicted-vs-observed pairs, but a selection
  // bench has no observed execution; synthesize the observation as a
  // seeded perturbation of the prediction, fed *in query order* so the
  // monitor's state is a pool-independent fact.
  obs::DriftMonitor drift;
  obs::SnapshotRing snapshots(64);
  const util::Stopwatch clock;
  util::Rng noise(20260808);
  std::size_t query_index = 0;
  for (std::size_t off = 0; off < w.queries.size(); off += w.batch_size) {
    const std::size_t n = std::min(w.batch_size, w.queries.size() - off);
    const auto results = svc.query_batch({w.queries.data() + off, n});
    for (const auto& r : results) {
      ++query_index;
      if (!r.ok() || r.ranked.empty()) continue;
      const auto& best = r.ranked.front();
      obs::ResidualPoint pt;
      pt.label = "q-" + std::to_string(query_index - 1);
      pt.predicted.disk = best.predicted.disk;
      pt.predicted.network = best.predicted.network;
      pt.predicted.compute_local = best.predicted.compute;
      const double eps = noise.uniform(-0.05, 0.05);
      pt.observed.disk = pt.predicted.disk * (1.0 + eps);
      pt.observed.network = pt.predicted.network * (1.0 + eps);
      pt.observed.compute_local = pt.predicted.compute_local * (1.0 + eps);
      drift.observe(pt);
    }
    // Per-batch snapshots make the ring a rate-over-time series; the
    // deterministic scalars at batch boundaries are pool-independent.
    snapshots.capture(registry, clock.seconds());
  }

  InstrumentedRun out;
  out.metrics_det = registry.to_json(false);
  out.trace_det = trace.to_chrome_json(false);
  out.drift_det = drift.to_json();
  out.snapshots_det = snapshots.to_json(false);
  out.trace_full = trace.to_chrome_json(true);
  out.slowlog_full = slowlog.to_json();
  out.drift_full = drift.to_json();
  out.snapshots_full = snapshots.to_json(true);
  out.latency_count = latency.count();
  return out;
}

void check_instrumented_identical(const InstrumentedRun& got,
                                  const InstrumentedRun& ref,
                                  std::size_t pool_threads) {
  FGP_CHECK_MSG(got.metrics_det == ref.metrics_det,
                "pool=" << pool_threads
                        << ": deterministic metrics diverged under "
                           "instrumentation");
  FGP_CHECK_MSG(got.trace_det == ref.trace_det,
                "pool=" << pool_threads
                        << ": deterministic trace diverged under "
                           "instrumentation");
  FGP_CHECK_MSG(got.drift_det == ref.drift_det,
                "pool=" << pool_threads << ": drift state diverged");
  FGP_CHECK_MSG(got.snapshots_det == ref.snapshots_det,
                "pool=" << pool_threads
                        << ": deterministic snapshots diverged");
}

/// Times one full query stream: warm up once, then repeat until
/// `min_seconds` of accumulated runtime and return mean per-stream seconds.
template <typename Fn>
double time_stream(Fn&& fn, double min_seconds) {
  fn();  // warmup (fault in the catalog, fill the profile cache)
  int reps = 1;
  for (;;) {
    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) fn();
    const double s = sw.seconds();
    if (s >= min_seconds) return s / reps;
    const double scale = std::min(16.0, 1.2 * min_seconds / std::max(s, 1e-9));
    reps = std::max(reps + 1, static_cast<int>(reps * scale));
  }
}

std::string to_json(const Workload& w, const service::ServiceConfig& config,
                    const std::vector<LadderRung>& ladder, double rss_built,
                    double rss_warm, double rss_after, bool quick) {
  double best = 0.0;
  for (const auto& r : ladder) best = std::max(best, r.queries_per_second);
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"schema\": \"fgpred-service-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"note\": \"batched selection over a sharded catalog; rankings "
        "cross-checked bit-identical serial vs every pool rung before "
        "timing. queries/sec scales with host_cores (queries are "
        "independent); on 1 core the pooled rungs can only break even. "
        "bench_diff refuses comparisons across different host_cores.\",\n";
  os << "  \"shards\": " << config.shards << ",\n";
  os << "  \"datasets\": " << w.datasets << ",\n";
  os << "  \"replica_entries\": " << w.catalog->replica_count() << ",\n";
  os << "  \"queries\": " << w.queries.size() << ",\n";
  os << "  \"batch_size\": " << w.batch_size << ",\n";
  os << "  \"rss_after_build_bytes\": " << rss_built << ",\n";
  os << "  \"rss_after_warmup_bytes\": " << rss_warm << ",\n";
  os << "  \"rss_after_run_bytes\": " << rss_after << ",\n";
  os << "  \"ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i];
    os << "    {\n";
    os << "      \"mode\": \"" << rung_mode(r) << "\",\n";
    os << "      \"pool_threads\": " << r.pool_threads << ",\n";
    os << "      \"seconds_per_stream\": " << r.seconds_per_stream << ",\n";
    os << "      \"queries_per_second\": " << r.queries_per_second << ",\n";
    os << "      \"p50_s\": " << r.p50_s << ",\n";
    os << "      \"p99_s\": " << r.p99_s << "\n";
    os << "    }" << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"queries_per_second\": " << best << "\n";
  os << "}\n";
  return os.str();
}

/// The per-rung latency quantile report (schema "fgpred-servicelat-v1"),
/// the feed for BENCH_servicelat.json / tools/bench_diff. Latencies are
/// wall-clock, so like fgpred-service-v1 the report is machine-bound:
/// bench_diff refuses comparisons across different host_cores.
std::string latency_to_json(const std::vector<LadderRung>& ladder,
                            bool quick) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"fgpred-servicelat-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"note\": \"per-query wall-clock latency quantiles from the "
        "timed streams (obs::HdrHistogram, <= ~3.1% quantile error). "
        "Machine-bound: bench_diff refuses comparison across different "
        "host_cores; regression direction is a p99 rise.\",\n";
  os << "  \"rungs\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i];
    os << "    {\n";
    os << "      \"mode\": \"" << rung_mode(r) << "\",\n";
    os << "      \"pool_threads\": " << r.pool_threads << ",\n";
    os << "      \"latency\": " << r.latency_json << "\n";
    os << "    }" << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  FGP_CHECK_MSG(f.good(), "cannot read " << path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace
}  // namespace fgp::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string metrics_out_path;
  std::string config_path;
  std::string trace_out_path;
  std::string slowlog_out_path;
  std::string drift_out_path;
  std::string snapshots_out_path;
  std::string latency_out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slowlog-out") == 0 && i + 1 < argc) {
      slowlog_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--drift-out") == 0 && i + 1 < argc) {
      drift_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshots-out") == 0 && i + 1 < argc) {
      snapshots_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--latency-out") == 0 && i + 1 < argc) {
      latency_out_path = argv[++i];
    } else {
      std::cerr << "usage: service_perf [--quick] [--out <path>] "
                   "[--metrics-out <path>] [--config <path>] "
                   "[--trace-out <path>] [--slowlog-out <path>] "
                   "[--drift-out <path>] [--snapshots-out <path>] "
                   "[--latency-out <path>]\n";
      return 2;
    }
  }
  const double min_seconds = quick ? 0.05 : 0.5;

  fgp::service::ServiceConfig config;
  config.shards = 64;
  if (!config_path.empty())
    config = fgp::service::parse_service_config(
        fgp::bench::read_file(config_path));

  const auto workload = fgp::bench::build_workload(config, quick);
  const double rss_built = fgp::bench::resident_bytes();
  std::cerr << "catalog: " << workload.catalog->replica_count()
            << " replica entries over " << workload.datasets << " datasets, "
            << config.shards << " shards\n";

  // Serial reference: results + metrics (the registry also feeds the
  // --metrics-out export; only the serial service records, so the
  // deterministic section is a pool-independent fact).
  fgp::obs::Registry metrics;
  fgp::service::SelectionService serial(workload.catalog.get(), nullptr,
                                        &metrics);
  fgp::bench::register_apps(serial);
  std::vector<fgp::service::SelectionResult> reference;
  fgp::bench::run_stream(serial, workload, &reference);
  const double rss_warm = fgp::bench::resident_bytes();
  // Snapshot now, before the timing loops re-run the stream a
  // wall-clock-dependent number of times: one reference stream's counters
  // are a reproducible fact, the timed repetitions are not.
  const std::string metrics_json = metrics.to_json(true);

  // Instrumented reference pass: full observer set attached, serial
  // evaluate. Its deterministic exports are the yardstick every pool
  // rung must reproduce byte-for-byte; its full exports become the
  // --trace-out/--slowlog-out/--drift-out/--snapshots-out artifacts.
  const auto instrumented_ref =
      fgp::bench::run_instrumented(workload, config, nullptr);
  FGP_CHECK_MSG(instrumented_ref.latency_count == workload.queries.size(),
                "HDR latency recorder missed queries: "
                    << instrumented_ref.latency_count << " of "
                    << workload.queries.size());

  std::vector<fgp::bench::LadderRung> ladder;
  {
    fgp::obs::HdrHistogram latency;
    fgp::service::ServiceObservers timed_observers;
    timed_observers.latency = &latency;
    serial.set_observers(timed_observers);
    fgp::bench::LadderRung rung;
    rung.seconds_per_stream = fgp::bench::time_stream(
        [&] { fgp::bench::run_stream(serial, workload, nullptr); },
        min_seconds);
    serial.set_observers({});
    rung.queries_per_second =
        static_cast<double>(workload.queries.size()) / rung.seconds_per_stream;
    rung.p50_s = latency.quantile(0.50);
    rung.p99_s = latency.quantile(0.99);
    rung.latency_json = latency.to_json_object();
    ladder.push_back(rung);
    std::cerr << "serial: " << rung.queries_per_second << " queries/sec\n";
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t threads = 1; threads <= cores; threads *= 2) {
    fgp::util::ThreadPool pool(threads);
    fgp::service::SelectionService svc(workload.catalog.get(), &pool);
    fgp::bench::register_apps(svc);
    std::vector<fgp::service::SelectionResult> results;
    fgp::bench::run_stream(svc, workload, &results);
    fgp::bench::check_bit_identical(results, reference, threads);
    fgp::bench::check_instrumented_identical(
        fgp::bench::run_instrumented(workload, config, &pool),
        instrumented_ref, threads);

    fgp::obs::HdrHistogram latency;
    fgp::service::ServiceObservers timed_observers;
    timed_observers.latency = &latency;
    svc.set_observers(timed_observers);
    fgp::bench::LadderRung rung;
    rung.pool_threads = threads;
    rung.seconds_per_stream = fgp::bench::time_stream(
        [&] { fgp::bench::run_stream(svc, workload, nullptr); }, min_seconds);
    svc.set_observers({});
    rung.queries_per_second =
        static_cast<double>(workload.queries.size()) / rung.seconds_per_stream;
    rung.p50_s = latency.quantile(0.50);
    rung.p99_s = latency.quantile(0.99);
    rung.latency_json = latency.to_json_object();
    ladder.push_back(rung);
    std::cerr << "pool=" << threads << ": " << rung.queries_per_second
              << " queries/sec (p50 " << rung.p50_s * 1e6 << " us, p99 "
              << rung.p99_s * 1e6 << " us)\n";
  }
  const double rss_after = fgp::bench::resident_bytes();

  const std::string json = fgp::bench::to_json(
      workload, config, ladder, rss_built, rss_warm, rss_after, quick);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(out_path);
    f << json;
    std::cerr << "wrote " << out_path << "\n";
  }
  if (!metrics_out_path.empty()) {
    std::ofstream f(metrics_out_path);
    f << metrics_json;
    std::cerr << "wrote " << metrics_out_path << "\n";
  }
  const auto write_artifact = [](const std::string& path,
                                 const std::string& content) {
    if (path.empty()) return;
    std::ofstream f(path);
    f << content;
    std::cerr << "wrote " << path << "\n";
  };
  write_artifact(trace_out_path, instrumented_ref.trace_full);
  write_artifact(slowlog_out_path, instrumented_ref.slowlog_full);
  write_artifact(drift_out_path, instrumented_ref.drift_full);
  write_artifact(snapshots_out_path, instrumented_ref.snapshots_full);
  write_artifact(latency_out_path,
                 fgp::bench::latency_to_json(ladder, quick));
  return 0;
}
