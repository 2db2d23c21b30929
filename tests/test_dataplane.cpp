// test_dataplane.cpp — the out-of-core data plane's bit-identity contract
// (DESIGN.md §15): a size-scaling figure whose datasets stream through
// budget-bounded mmap windows (bench::streamed_copy) is byte-identical —
// serialized residual reports, deterministic traces and metrics alike —
// to the same figure run in memory, serially and at sweep pool sizes 1, 2
// and 8. Window mapping and recycling must never change a single output
// bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fgp::bench {
namespace {

/// Every deterministic artifact a fig07-style run produces, flattened to
/// strings so equality means bit-identity.
struct FigureArtifacts {
  std::string residuals_json;
  std::string trace_json;    ///< to_chrome_json(false): host stripped
  std::string metrics_json;  ///< to_json(false): host stripped
};

bool operator==(const FigureArtifacts& a, const FigureArtifacts& b) {
  return a.residuals_json == b.residuals_json && a.trace_json == b.trace_json &&
         a.metrics_json == b.metrics_json;
}

/// One fig07-style run: global-reduction profile on `profile_app`,
/// predictions and exact runs on `target_app`, every observability sink
/// attached.
FigureArtifacts run_figure(const BenchApp& profile_app,
                           const BenchApp& target_app,
                           util::ThreadPool* pool) {
  const SweepRunner sweep(pool);
  obs::TraceRecorder trace;
  obs::Registry metrics;
  obs::ResidualReport residuals;
  FigureObs fig_obs;
  fig_obs.trace = &trace;
  fig_obs.metrics = &metrics;
  fig_obs.residuals = &residuals;
  global_model_figure(sweep, "dataplane bit-identity probe", profile_app,
                      target_app, sim::cluster_pentium_myrinet(),
                      sim::wan_mbps(800.0), sim::wan_mbps(800.0), fig_obs);
  return {residuals.to_json(), trace.to_chrome_json(false),
          metrics.to_json(false)};
}

TEST(DataPlane, StreamedSweepBitIdenticalToInMemoryAcrossPools) {
  // The out-of-core plane (DESIGN.md §15): the same fig07-style figure
  // driven through budget-bounded mmap windows must reproduce the
  // in-memory artifacts bit for bit at pools 1, 2 and 8 — window mapping
  // and recycling only move host wall-clock time.
  const BenchApp target = make_em_app(80.0, 1.0, 42, 2);
  const BenchApp profile = make_em_app(20.0, 0.25, 42, 2);
  // A deliberately tight budget, so the sweep recycles windows constantly
  // while it runs.
  const BenchApp streamed_target = streamed_copy(target, 1u << 20);
  const BenchApp streamed_profile = streamed_copy(profile, 1u << 20);
  ASSERT_TRUE(streamed_target.dataset->streamed());
  ASSERT_TRUE(streamed_profile.dataset->streamed());

  const FigureArtifacts reference = run_figure(profile, target, nullptr);
  EXPECT_TRUE(reference ==
              run_figure(streamed_profile, streamed_target, nullptr))
      << "streamed plane, serial";
  for (const std::size_t n : {1, 2, 8}) {
    util::ThreadPool pool(n);
    EXPECT_TRUE(reference ==
                run_figure(streamed_profile, streamed_target, &pool))
        << "streamed plane, pool of " << n;
  }
}

TEST(DataPlane, NoPoolTaskOutlivesRun) {
  // Regression: streamed runs fan fetches out over a (often long-lived)
  // shared pool, but the streamed source records into a caller-scoped
  // metrics registry. A pool task that outlived run() once dereferenced a
  // destroyed registry mid-bench — and a straggler could equally wedge
  // the pool's worker on a destroyed mutex at process exit. The registry,
  // the dataset handle and its temp store must all be free to die the
  // moment run() returns. Under the sanitizer presets any straggler task
  // turns the churn below into a hard failure.
  util::ThreadPool pool(2);
  const BenchApp base = make_em_app(40.0, 1.0, 42, 2);
  for (int round = 0; round < 4; ++round) {
    {
      obs::Registry metrics;
      const BenchApp streamed = streamed_copy(base, 1u << 20, &metrics);
      ASSERT_TRUE(streamed.dataset->streamed());
      (void)simulate(streamed, sim::cluster_pentium_myrinet(),
                     sim::cluster_pentium_myrinet(), sim::wan_mbps(800.0),
                     {4, 8}, false, &pool, nullptr, &metrics);
    }  // registry, streamed dataset and its temp store are gone here
    // Churn the pool: a leftover task would now run against the destroyed
    // registry/window pool instead of these no-ops.
    for (int i = 0; i < 32; ++i) pool.parallel_for(2, [](std::size_t) {});
  }
}

}  // namespace
}  // namespace fgp::bench
