// Extension E3: pipelined (overlapped) execution vs the additive model.
//
// The paper's model decomposes T_exec = T_disk + T_network + T_compute —
// it assumes the middleware runs the stages additively. A middleware that
// pipelines chunk retrieval, movement and processing finishes in roughly
// max(components) + serialized parts instead. This bench runs k-means in
// both modes and predicts both with the published (additive) model: the
// additive prediction stays accurate for additive execution and
// overestimates pipelined execution by the hiding factor — quantifying how
// load-bearing the additive assumption is.
#include <iostream>

#include "common.h"
#include "core/ipc_probe.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace fgp;
  const auto app = bench::make_kmeans_app(1400.0, 4.0, 42);
  const auto cluster = sim::cluster_pentium_myrinet();
  const auto wan = sim::wan_mbps(800.0);

  std::cout << "Extension E3: additive vs pipelined execution (k-means, "
               "1.4 GB, published additive model)\n\n";

  auto run_app = [&](const bench::BenchApp& a, bench::NodeConfig cfg,
                     bool overlap) {
    freeride::JobSetup setup;
    setup.dataset = a.dataset.get();
    setup.data_cluster = cluster;
    setup.compute_cluster = cluster;
    setup.wan = wan;
    setup.config.data_nodes = cfg.n;
    setup.config.compute_nodes = cfg.c;
    setup.config.overlap_phases = overlap;
    auto kernel = a.factory();
    return freeride::Runtime(&bench::shared_pool()).run(setup, *kernel);
  };
  auto run_mode = [&](bench::NodeConfig cfg, bool overlap) {
    return run_app(app, cfg, overlap);
  };

  // Profile in additive mode at 1-1 (what the framework would collect).
  const core::Profile base =
      bench::profile_of(app, cluster, cluster, wan, {1, 1});
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = app.classes;
  opts.ipc = core::measure_ipc(cluster);
  const core::Predictor predictor(base, opts);

  util::Table table({"data-compute", "T_additive(s)", "T_pipelined(s)",
                     "hiding", "err vs additive", "err vs pipelined"});
  util::Accumulator err_additive, err_pipelined;
  for (const auto cfg : bench::paper_grid()) {
    const double t_add = run_mode(cfg, false).timing.elapsed;
    const double t_pipe = run_mode(cfg, true).timing.elapsed;
    core::ProfileConfig target = base.config;
    target.data_nodes = cfg.n;
    target.compute_nodes = cfg.c;
    const double predicted = predictor.predict(target).total();
    const double ea = util::relative_error(t_add, predicted);
    const double ep = util::relative_error(t_pipe, predicted);
    err_additive.add(ea);
    err_pipelined.add(ep);
    table.add_row({std::to_string(cfg.n) + "-" + std::to_string(cfg.c),
                   util::Table::fmt(t_add, 2), util::Table::fmt(t_pipe, 2),
                   util::Table::fmt(t_add / t_pipe, 2) + "x",
                   util::Table::pct(ea), util::Table::pct(ep)});
  }
  table.print(std::cout);
  std::cout << "\n  max error vs additive execution: "
            << util::Table::pct(err_additive.max())
            << "; vs pipelined execution: "
            << util::Table::pct(err_pipelined.max())
            << "\n  The additive model is tied to the additive middleware: "
               "pipelining would require predicting max(T_d, T_n, T_c) "
               "instead of the sum.\n\n";

  // Cross-check against the real host data plane (DESIGN.md §15). The
  // pipelined *virtual-time* model above and the streamed plane's host IO
  // are independent layers: one reshapes the modelled phase timings, the
  // other only changes where host bytes come from. Re-running the job
  // out-of-core must therefore reproduce the exact pass structure and
  // virtual times of the in-memory run in both modes — enforced here, not
  // just reported.
  obs::Registry stream_metrics;
  const auto streamed = bench::streamed_copy(app, 8u << 20, &stream_metrics);
  std::cout << "  Host-overlap cross-check (streamed data plane, 8 MiB "
               "window budget, config 4-8):\n";
  util::Table xtable(
      {"execution", "passes", "T_virtual(s)", "vs in-memory"});
  for (const bool overlap : {false, true}) {
    const auto mem = run_mode({4, 8}, overlap);
    const auto str = run_app(streamed, {4, 8}, overlap);
    bool identical = mem.passes == str.passes &&
                     mem.timing.elapsed == str.timing.elapsed &&
                     mem.timing.passes.size() == str.timing.passes.size();
    for (std::size_t p = 0; identical && p < mem.timing.passes.size(); ++p) {
      const auto& a = mem.timing.passes[p];
      const auto& b = str.timing.passes[p];
      identical = a.elapsed == b.elapsed && a.timing.disk == b.timing.disk &&
                  a.timing.network == b.timing.network &&
                  a.timing.compute() == b.timing.compute();
    }
    FGP_CHECK_MSG(identical,
                  "streamed run diverged from in-memory run in "
                      << (overlap ? "pipelined" : "additive") << " mode");
    xtable.add_row({overlap ? "pipelined" : "additive",
                    std::to_string(str.passes),
                    util::Table::fmt(str.timing.elapsed, 2),
                    "bit-identical"});
  }
  xtable.print(std::cout);
  std::cout << "  streamer: window recycles "
            << static_cast<long long>(
                   stream_metrics.host_value("store.window_recycles"))
            << ", stitched chunks "
            << static_cast<long long>(
                   stream_metrics.value("store.stitched_chunks"))
            << "\n\n";
  return 0;
}
