// Sweep-runner determinism: a fig02-style evaluation grid executed
// serially must be byte-identical to the same grid executed concurrently
// through a SweepRunner at pool sizes 1, 2 and 8 — RunResult timings and
// serialized reduction objects alike (DESIGN.md §11). Each configuration
// also borrows the sweep's pool for its own two-level reduction, so this
// exercises both levels at once. The k-means job that perfbench's
// fig-sweep workload times is pinned against a committed golden.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <vector>

#include "apps/kmeans.h"
#include "common.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace fgp::bench {
namespace {

/// One configuration's outcome, flattened to raw bytes so equality means
/// bit-identity (the serialized object plus every timing component).
std::vector<std::uint8_t> fingerprint(const freeride::RunResult& r) {
  util::ByteWriter w;
  r.result->serialize(w);
  w.put_f64(r.timing.elapsed);
  w.put_f64(r.timing.max_object_bytes);
  w.put_f64(r.timing.total.disk);
  w.put_f64(r.timing.total.network);
  w.put_f64(r.timing.total.compute_local);
  w.put_f64(r.timing.total.ro_comm);
  w.put_f64(r.timing.total.global_red);
  w.put_f64(r.total_work.flops);
  w.put_f64(r.total_work.bytes);
  return w.take();
}

TEST(SweepRunner, MapPreservesIndexOrder) {
  // map() must place result i at slot i no matter which worker computed
  // it; a serial runner is the reference.
  util::ThreadPool pool(4);
  const SweepRunner serial(nullptr);
  const SweepRunner pooled(&pool);
  const auto fn = [](std::size_t i) { return i * 31 + 7; };
  const auto a = serial.map(64, fn);
  const auto b = pooled.map(64, fn);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[5], 5u * 31 + 7);
}

TEST(SweepRunner, Fig02StyleGridBitIdenticalAcrossPoolSizes) {
  const BenchApp app = make_kmeans_app(80.0, 1.0, 42, 2);
  const auto cluster = sim::cluster_pentium_myrinet();
  const auto wan = sim::wan_mbps(800.0);
  const std::vector<NodeConfig> grid = paper_grid();

  const auto run_grid = [&](const SweepRunner& sweep) {
    return sweep.map(grid.size(), [&](std::size_t i) {
      return fingerprint(
          simulate(app, cluster, cluster, wan, grid[i], false, sweep.pool()));
    });
  };

  const SweepRunner serial(nullptr);
  const auto reference = run_grid(serial);
  ASSERT_EQ(reference.size(), grid.size());
  for (const std::size_t n : {1, 2, 8}) {
    util::ThreadPool pool(n);
    const SweepRunner runner(&pool);
    EXPECT_EQ(reference, run_grid(runner)) << "sweep pool of " << n;
  }
}

TEST(SweepRunner, FigSweepKMeansJobMatchesGolden) {
  // fig-sweep's job (1.4 GB virtual / 4 MB real, default seed, 10
  // passes). The figure goldens print errors to two decimals and k-means'
  // virtual time ignores the centres' values, so this pins the kernel's
  // answers themselves: each run's final centres and per-pass objective at
  // 17 significant digits, against tests/golden/kmeans_fig_sweep.txt.
  const BenchApp app = make_kmeans_app(1400.0, 4.0, 20070326, 10);
  std::ostringstream out;
  out.precision(17);
  for (const NodeConfig cfg : {NodeConfig{1, 1}, {2, 4}, {8, 16}}) {
    freeride::JobSetup setup;
    setup.dataset = app.dataset.get();
    setup.data_cluster = sim::cluster_pentium_myrinet();
    setup.compute_cluster = setup.data_cluster;
    setup.wan = sim::wan_mbps(800.0);
    setup.config.data_nodes = cfg.n;
    setup.config.compute_nodes = cfg.c;
    const auto kernel = app.factory();
    freeride::Runtime().run(setup, *kernel);
    const auto& km = dynamic_cast<const apps::KMeansKernel&>(*kernel);
    out << cfg.n << '-' << cfg.c << " centers";
    for (const double c : km.centers()) out << ' ' << c;
    out << '\n' << cfg.n << '-' << cfg.c << " objective";
    for (const double sse : km.objective_history()) out << ' ' << sse;
    out << '\n';
  }
  std::ifstream golden(FGP_TEST_GOLDEN_DIR "/kmeans_fig_sweep.txt",
                       std::ios::binary);
  ASSERT_TRUE(golden) << "missing golden kmeans_fig_sweep.txt";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str());
}

}  // namespace
}  // namespace fgp::bench
