// perfbench — the end-to-end benchmark of fgpred.
//
// Usage:
//   perfbench --workload fig-sweep|ooc-stream|select-serve --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--out-dir DIR]
//
// One process measures one workload on a pool of (cores - 1) workers; the
// caller also drains parallel_for ranges, so at most `cores` threads run.
//
//   --trace 0  Sets up five times (median set-up time, each set-up ending
//              with one warm-up operation), builds a serial reference,
//              warms up for kWarmupSeconds with checked operations, then
//              times operations back to back for S seconds — longer
//              if p90 needs more samples — checking every output. Prints
//              the end-to-end metrics and writes every sample to
//              DIR/samples-<workload>.json:
//                op_p50_ms    median of the request a user waits on: a
//                             sweep, a streamed job, or a query batch
//                ops_per_s    whole operations per second of operation
//                             time (for select-serve a round: a query
//                             batch and a publish)
//                setup_s      median of the five set-ups
//                peak_rss_mb  getrusage peak of the process
//              The request's p90 (op_p90_ms) goes to the report line, not
//              the result: on a shared 4-vCPU host, ooc-stream's p90 spread
//              0.62 (interquartile range / median) over ten 30 s runs
//              during a slow spell of the host, its median 0.17.
//   --trace 1  Sets up once, times untraced operations for S/2 seconds,
//              then records host spans around every layer call over a few
//              traced operations, attributes each operation's wall time to
//              the layers (attribution.h), runs the layer probes, and
//              writes the trace (fgpred-trace-v1) to
//              DIR/trace-<workload>.json for `fgptrace --validate`. Prints
//              the per-layer metrics.
//
// Stdout ends with two JSON lines: a report (host facts and the
// workload's numbers under their paper-facing names), then the result
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only when
// every operation matched its reference.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "attribution.h"
#include "freeride/runtime.h"
#include "harness.h"
#include "obs/pool.h"
#include "util/check.h"
#include "util/wallclock.h"

namespace fgp::perfbench {
namespace {

/// Set-ups per timed run. Five, so that the median holds when the first
/// two are slow, as they were in runs that followed an idle host.
constexpr int kSetups = 5;
/// Samples a run needs so that ten lie beyond p90.
constexpr std::size_t kMinSamples = 100;
/// Checked, untimed operations between the serial reference and the timed
/// ones. The pool's threads idle while the reference is built; after it,
/// select-serve's first ~100 batches ran at 9 ms against 2.2 ms after.
constexpr double kWarmupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;
  std::filesystem::path out_dir;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

std::string number(double v) {
  FGP_CHECK_MSG(std::isfinite(v), "metric value is not finite");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  FGP_CHECK_MSG(f.good(), "cannot write " << path);
}

struct Sample {
  double op_s = 0.0;       ///< the whole operation
  double request_s = 0.0;  ///< the request a user waits on (Workload::op)
};

/// Runs one operation and its check; a thrown error is a failure too.
Sample checked_op(Workload& wl, const Hooks* hooks, Outcome& outcome) {
  ++outcome.attempted;
  Sample sample;
  try {
    const util::Stopwatch sw;
    {
      const obs::HostSpan span(hooks != nullptr ? hooks->trace : nullptr,
                               "bench", "op");
      sample.request_s = wl.op(hooks);
    }
    sample.op_s = sw.seconds();
    if (!wl.check()) {
      ++outcome.failed;
      std::cerr << "perfbench: operation " << outcome.attempted
                << " differs from the reference\n";
    }
  } catch (const std::exception& e) {
    ++outcome.failed;
    std::cerr << "perfbench: operation " << outcome.attempted
              << " threw: " << e.what() << "\n";
  }
  return sample;
}

/// Runs checked operations for kWarmupSeconds, at least one: correctness is
/// checked before anything is timed.
void warm_up(Workload& wl, Outcome& outcome) {
  const util::Stopwatch clock;
  do {
    checked_op(wl, nullptr, outcome);
  } while (clock.seconds() < kWarmupSeconds);
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i > 0 ? ", " : "") + number(v[i]);
  return s + "]";
}

void run_timed(Workload& wl, const Args& args, Report& out, Outcome& outcome) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const util::Stopwatch sw;
    wl.setup();
    wl.op(nullptr);  // warm-up: lazy set-up lands here, not in a sample
    setups.push_back(sw.seconds());
  }
  wl.build_reference();
  warm_up(wl, outcome);

  std::vector<double> op_s;
  std::vector<double> request_s;
  double busy_s = 0.0;
  const util::Stopwatch clock;
  while (clock.seconds() < args.seconds || op_s.size() < kMinSamples) {
    const Sample s = checked_op(wl, nullptr, outcome);
    op_s.push_back(s.op_s);
    request_s.push_back(s.request_s);
    busy_s += s.op_s;
  }

  out.metric("setup_s", median(setups), "s");
  out.metric("op_p50_ms", quantile(request_s, 0.50) * 1e3, "ms");
  out.metric("ops_per_s", static_cast<double>(op_s.size()) / busy_s, "1/s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.fact("samples", static_cast<double>(op_s.size()), "count");
  out.fact("op_p90_ms", quantile(request_s, 0.90) * 1e3, "ms");
  out.fact("setup_runs", kSetups, "count");
  out.fact("failed_ratio",
           ratio(static_cast<double>(outcome.failed),
                 static_cast<double>(outcome.attempted)),
           "fraction");
  wl.report(out, request_s);
  write_file(args.out_dir / ("samples-" + args.workload + ".json"),
             "{\"setup_s\": " + json_list(setups) +
                 ", \"op_s\": " + json_list(op_s) +
                 ", \"request_s\": " + json_list(request_s) + "}\n");
}

/// A workload's traced operations and what they moved.
struct TracedOps {
  std::vector<double> seconds;
  std::map<std::string, double> counters;  ///< deltas over the traced ops
  util::PoolStats pool;                    ///< deltas over the traced ops
  std::map<std::string, double> self_s;    ///< summed over the traced ops
  double wall_s = 0.0;                     ///< summed over the traced ops

  double per_op(double v) const {
    return v / static_cast<double>(seconds.size());
  }
  double self_ms_per_op(const std::string& layer) const {
    const auto it = self_s.find(layer);
    return it != self_s.end() ? per_op(it->second) * 1e3 : 0.0;
  }

  /// Adds the layer self times of every operation span in `trace_json`.
  void attribute(const std::string& trace_json) {
    for (const OpAttribution& a : attribute_ops(trace_json)) {
      wall_s += a.wall_s;
      for (const auto& [layer, s] : a.self_s) self_s[layer] += s;
    }
  }
};

std::map<std::string, double> read_counters(const obs::Registry& m) {
  std::map<std::string, double> c;
  for (const char* host : {"engine.events_dispatched", "store.prefetch_hits",
                           "store.prefetch_misses", "store.window_maps",
                           "store.window_recycles"})
    c[host] = m.host_value(host);
  for (const char* det : {"store.stitched_chunks", "service.cache_hits",
                          "service.cache_misses", "service.shard_fanout"})
    c[det] = m.value(det);
  return c;
}

/// Records host spans around every layer call of a few operations (at
/// least two, at most max_traced_ops(), for about `seconds`).
TracedOps trace_ops(Workload& wl, util::ThreadPool& pool, double seconds,
                    obs::TraceRecorder& trace, obs::Registry& metrics,
                    Outcome& outcome) {
  const Hooks hooks{&trace, &metrics};
  wl.prepare_tracing(hooks);
  obs::attach_pool_tracing(pool, &trace);
  const auto counters_before = read_counters(metrics);
  const util::PoolStats pool_before = pool.stats();

  TracedOps t;
  const util::Stopwatch clock;
  while (t.seconds.size() < 2 || (t.seconds.size() < wl.max_traced_ops() &&
                                  clock.seconds() < seconds))
    t.seconds.push_back(checked_op(wl, &hooks, outcome).op_s);

  t.counters = read_counters(metrics);
  for (auto& [name, v] : t.counters) v -= counters_before.at(name);
  const util::PoolStats pool_after = pool.stats();
  obs::attach_pool_tracing(pool, nullptr);
  t.pool.parallel_for_calls =
      pool_after.parallel_for_calls - pool_before.parallel_for_calls;
  t.pool.blocks_total = pool_after.blocks_total - pool_before.blocks_total;
  t.pool.blocks_by_helpers =
      pool_after.blocks_by_helpers - pool_before.blocks_by_helpers;
  return t;
}

/// Per-batch service numbers from traced select-serve rounds (one batch
/// and one publish per operation).
void service_metrics(Workload& svc, const TracedOps& t,
                     const SetupTimes& parts, Report& out) {
  for (const char* phase :
       {"batch", "prepare", "shard_load", "evaluate", "query", "publish"})
    out.metric(std::string("service.") + phase + "_self_ms",
               t.self_ms_per_op(std::string("service.") + phase), "ms");
  const double hits = t.counters.at("service.cache_hits");
  out.metric("service.cache_hit_ratio",
             ratio(hits, hits + t.counters.at("service.cache_misses")),
             "fraction");
  out.metric("service.shard_fanout",
             t.per_op(t.counters.at("service.shard_fanout")), "count");
  out.metric("service.register_replicas_s", parts.register_replicas_s.value(),
             "s");
  svc.report_traced(out);
}

void run_traced(Workload& wl, const WorkloadContext& ctx, const Args& args,
                Report& out, Outcome& outcome) {
  util::ThreadPool& pool = *ctx.pool;
  const SetupTimes parts = wl.setup();
  wl.op(nullptr);  // warm-up
  wl.build_reference();
  warm_up(wl, outcome);

  std::vector<double> untraced;
  const util::Stopwatch untraced_clock;
  while (untraced_clock.seconds() < args.seconds / 2 || untraced.size() < 3)
    untraced.push_back(checked_op(wl, nullptr, outcome).op_s);

  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::Registry metrics;
  TracedOps ops =
      trace_ops(wl, pool, args.seconds / 2, trace, metrics, outcome);

  // One run with the runtime's own trace hook on: its virtual-time phase
  // spans and host "run" span land in the export beside the bench's spans.
  const ProbeTarget target = wl.probe_target();
  {
    auto setup =
        job_setup(*target.job_dataset, target.cluster, target.wan, 8, 16);
    setup.trace = &trace;
    auto k = target.app->factory();
    freeride::Runtime(&pool).run(setup, *k);
  }

  // The trace: written out, and attributed layer by layer.
  const std::string json = trace.to_chrome_json(true);
  write_file(args.out_dir / ("trace-" + args.workload + ".json"), json);
  ops.attribute(json);

  out.metric("datagen.generate_s", parts.datagen_s, "s");
  out.metric("sim.events_dispatched",
             ops.per_op(ops.counters.at("engine.events_dispatched")), "count");
  out.metric("util.pool.parallel_for_calls",
             ops.per_op(static_cast<double>(ops.pool.parallel_for_calls)),
             "count");
  out.metric("util.pool.helper_block_ratio",
             ratio(static_cast<double>(ops.pool.blocks_by_helpers),
                   static_cast<double>(ops.pool.blocks_total)),
             "fraction");
  const double hits = ops.counters.at("store.prefetch_hits");
  out.metric("repository.prefetch_hit_ratio",
             ratio(hits, hits + ops.counters.at("store.prefetch_misses")),
             "fraction");
  for (const char* name : {"window_maps", "window_recycles", "stitched_chunks"})
    out.metric(std::string("repository.") + name,
               ops.per_op(ops.counters.at(std::string("store.") + name)),
               "count");

  // Self time per layer as a share of operation wall time; the service's
  // phases are summed into one share here and broken out per batch below.
  std::map<std::string, double> share;
  for (const std::string& layer : layer_names()) {
    const auto it = ops.self_s.find(layer);
    const double s = it != ops.self_s.end() ? it->second : 0.0;
    const bool service = layer.starts_with("service.");
    share[service ? "service" : layer] += ratio(s, ops.wall_s);
    out.fact("self_ms." + layer, ops.self_ms_per_op(layer), "ms");
  }
  for (const char* layer :
       {"apps", "freeride", "core", "util.pool", "repository", "service"})
    out.metric(std::string(layer) + ".self_frac", share[layer], "fraction");
  out.metric("obs.attributed_frac", 1.0 - share["bench"], "fraction");
  out.metric("obs.trace_overhead_ratio", median(ops.seconds) / median(untraced),
             "ratio");
  out.fact("traced_ops", static_cast<double>(ops.seconds.size()), "count");
  out.fact("trace_events", static_cast<double>(trace.event_count()), "count");

  const double serial_s = median_seconds(3, [&] { wl.serial_op(); });
  out.metric("util.pool.speedup_vs_serial", serial_s / median(untraced),
             "ratio");

  // The service layer: the workload's own batches when it serves queries,
  // otherwise a small select-serve client traced the same way.
  if (parts.register_replicas_s) {
    service_metrics(wl, ops, parts, out);
  } else {
    const std::unique_ptr<Workload> probe = make_service_probe(ctx);
    const SetupTimes probe_parts = probe->setup();
    probe->op(nullptr);
    probe->build_reference();
    obs::TraceRecorder probe_trace;
    probe_trace.enable_host(true);
    obs::Registry probe_metrics;
    TracedOps probe_ops = trace_ops(*probe, pool, args.seconds / 2,
                                    probe_trace, probe_metrics, outcome);
    probe_ops.attribute(probe_trace.to_chrome_json(true));
    service_metrics(*probe, probe_ops, probe_parts, out);
  }

  run_probes(target, &pool, args.work_dir, out);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") { a.trace = value == "1"; have_trace = true; }
    else if (key == "--work-dir") a.work_dir = value;
    else if (key == "--out-dir") a.out_dir = value;
    else throw util::ConfigError("unknown option " + key);
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0.0) ||
      !have_trace || a.work_dir.empty())
    throw util::ConfigError(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR [--out-dir DIR]");
  if (a.out_dir.empty()) a.out_dir = a.work_dir;
  return a;
}

std::string json_metrics(const std::map<std::string, Report::Metric>& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": {\"value\": " + number(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

void print_lines(const Args& args, unsigned cores, std::size_t workers,
                 const Report& out, const Outcome& outcome) {
  std::cout << "{\"report\": \"perfbench\", \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"host_cores\": " << cores
            << ", \"pool_workers\": " << workers
            << ", \"facts\": " << json_metrics(out.facts) << "}\n";
  std::cout << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << json_metrics(out.metrics) << "}"
            << std::endl;
}

}  // namespace
}  // namespace fgp::perfbench

int main(int argc, char** argv) {
  using namespace fgp::perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const unsigned cores = host_cores();
    const std::size_t workers = cores > 1 ? cores - 1 : 1;
    fgp::util::ThreadPool pool(workers);
    std::filesystem::create_directories(args.work_dir);
    std::filesystem::create_directories(args.out_dir);
    const WorkloadContext ctx{args.seed, &pool, args.work_dir};
    std::unique_ptr<Workload> wl;
    if (args.workload == "fig-sweep") wl = make_fig_sweep(ctx);
    else if (args.workload == "ooc-stream") wl = make_ooc_stream(ctx);
    else if (args.workload == "select-serve") wl = make_select_serve(ctx);
    else throw fgp::util::ConfigError("unknown workload " + args.workload);

    Report out;
    Outcome outcome;
    if (args.trace)
      run_traced(*wl, ctx, args, out, outcome);
    else
      run_timed(*wl, args, out, outcome);
    wl.reset();
    print_lines(args, cores, workers, out, outcome);
    return outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
