// test_dataplane.cpp — the zero-copy data plane's bit-identity contract
// (DESIGN.md §13): a size-scaling figure driven by aliasing dataset views
// (bench::with_virtual_size) is byte-identical — serialized residual
// reports, deterministic traces and metrics alike — to the same figure
// driven by a deep-copied control dataset, at sweep pool sizes 1, 2 and 8.
// Sharing payload slabs between grid points must never change a single
// output bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fgp::bench {
namespace {

/// A control app whose dataset holds freshly allocated copies of every
/// payload (same ids, scales and bytes — different slabs). This is the
/// pre-zero-copy behaviour the aliasing views replaced.
BenchApp deep_copy_control(const BenchApp& app) {
  auto ds = std::make_shared<repository::ChunkedDataset>(app.dataset->meta());
  for (const auto& c : app.dataset->chunks()) {
    const auto bytes = c.payload();
    ds->add_chunk(repository::Chunk(
        c.id(), std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
        c.virtual_scale()));
  }
  BenchApp copy = app;
  copy.dataset = std::move(ds);
  return copy;
}

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

TEST(DataPlane, SharedViewSweepBitIdenticalToDeepCopyAcrossPools) {
  const BenchApp target = make_em_app(80.0, 1.0, 42, 2);
  const BenchApp view_profile = with_virtual_size(target, 20.0);
  const BenchApp copy_profile = deep_copy_control(view_profile);

  // Preconditions: the view aliases the target's slabs, the control does
  // not, and both present identical chunk bytes and virtual sizes.
  ASSERT_EQ(view_profile.dataset->chunk_count(), target.dataset->chunk_count());
  for (std::size_t i = 0; i < target.dataset->chunk_count(); ++i) {
    ASSERT_EQ(view_profile.dataset->chunk(i).payload().data(),
              target.dataset->chunk(i).payload().data());
    ASSERT_NE(copy_profile.dataset->chunk(i).payload().data(),
              target.dataset->chunk(i).payload().data());
    ASSERT_EQ(view_profile.dataset->chunk(i).checksum(),
              copy_profile.dataset->chunk(i).checksum());
  }
  ASSERT_DOUBLE_EQ(view_profile.dataset->total_virtual_bytes(), 20.0 * 1e6);

  // Serial deep-copy run is the reference; every pool size and either
  // data-plane strategy must reproduce it bit for bit.
  const FigureArtifacts reference =
      run_figure(copy_profile, target, nullptr);
  EXPECT_FALSE(reference.residuals_json.empty());
  for (const std::size_t n : {1, 2, 8}) {
    util::ThreadPool pool(n);
    EXPECT_TRUE(reference == run_figure(copy_profile, target, &pool))
        << "deep-copy control, pool of " << n;
    EXPECT_TRUE(reference == run_figure(view_profile, target, &pool))
        << "shared-view profile, pool of " << n;
  }
  EXPECT_TRUE(reference == run_figure(view_profile, target, nullptr))
      << "shared-view profile, serial";
}

TEST(DataPlane, StreamedSweepBitIdenticalToInMemoryAcrossPools) {
  // The out-of-core plane (DESIGN.md §15): the same fig07-style figure
  // driven through budget-bounded mmap windows with block prefetch must
  // reproduce the in-memory artifacts bit for bit at pools 1, 2 and 8 —
  // prefetch and window recycling only move host wall-clock time.
  const BenchApp target = make_em_app(80.0, 1.0, 42, 2);
  const BenchApp profile = with_virtual_size(target, 20.0);
  // A deliberately tight budget, so the sweep recycles windows constantly
  // while it runs.
  const BenchApp streamed_target = streamed_copy(target, 1u << 20);
  const BenchApp streamed_profile =
      with_virtual_size(streamed_target, 20.0);
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
    for (int i = 0; i < 32; ++i) pool.submit([] {}).wait();
  }
}

TEST(DataPlane, WithVirtualSizeRescalesWithoutTouchingTheOriginal) {
  const BenchApp app = make_kmeans_app(40.0, 1.0, 7, 2);
  const double before = app.dataset->total_virtual_bytes();
  const BenchApp half = with_virtual_size(app, 20.0);
  EXPECT_DOUBLE_EQ(half.dataset->total_virtual_bytes(), 20.0 * 1e6);
  EXPECT_DOUBLE_EQ(app.dataset->total_virtual_bytes(), before);
  // Kernel factory and classes ride along unchanged.
  EXPECT_EQ(half.name, app.name);
  ASSERT_TRUE(half.factory != nullptr);
}

}  // namespace
}  // namespace fgp::bench
