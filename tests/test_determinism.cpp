// Determinism regression: the virtual cluster must be bit-deterministic
// regardless of how much *host* parallelism executes it, or measured
// profiles become noisy and the paper's prediction model stops being
// falsifiable. Runs every figure-style workload shape end-to-end on the
// serial runtime and on host pools of 2 and 8 threads (plus 1 and a
// borrowed pool where chunk blocks split) and asserts that
// the final reduction objects, every virtual-time component, the
// deterministic trace/metrics exports, the resulting predictions and the
// residual report are bit-identical (not merely approximately equal).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/kmeans.h"
#include "apps/vortex.h"
#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "core/residuals.h"
#include "datagen/flowfield.h"
#include "datagen/points.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace fgp {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

/// Everything one end-to-end run produces, reduced to raw bytes so
/// equality means bit-identity (doubles compared via memcmp, so NaN or
/// signed-zero drift would also be caught).
struct RunFingerprint {
  std::vector<std::uint8_t> object_bytes;
  std::vector<double> doubles;
  int passes = 0;
  freeride::CacheMode cache_mode = freeride::CacheMode::None;
  std::string trace_json;    ///< virtual-time spans (host domain stripped)
  std::string metrics_json;  ///< deterministic metrics (host domain stripped)

  void add(double v) { doubles.push_back(v); }
};

void expect_identical(const RunFingerprint& a, const RunFingerprint& b,
                      const std::string& label) {
  EXPECT_EQ(a.passes, b.passes) << label;
  EXPECT_EQ(a.cache_mode, b.cache_mode) << label;
  EXPECT_EQ(a.object_bytes, b.object_bytes) << label << ": object bytes";
  ASSERT_EQ(a.doubles.size(), b.doubles.size()) << label;
  for (std::size_t i = 0; i < a.doubles.size(); ++i)
    EXPECT_EQ(std::memcmp(&a.doubles[i], &b.doubles[i], sizeof(double)), 0)
        << label << ": double #" << i << " (" << a.doubles[i] << " vs "
        << b.doubles[i] << ")";
  EXPECT_EQ(a.trace_json, b.trace_json) << label << ": trace export";
  EXPECT_EQ(a.metrics_json, b.metrics_json) << label << ": metrics export";
}

/// Runs `kernel` over `setup` on `runtime` with both observability sinks
/// attached and fingerprints everything the run exports.
RunFingerprint fingerprint_run(const freeride::Runtime& runtime,
                               freeride::JobSetup setup,
                               freeride::ReductionKernel& kernel) {
  obs::TraceRecorder trace;
  obs::Registry metrics;
  setup.trace = &trace;
  setup.metrics = &metrics;
  const freeride::RunResult result = runtime.run(setup, kernel);

  RunFingerprint fp;
  util::ByteWriter w;
  result.result->serialize(w);
  fp.object_bytes = w.take();
  fp.passes = result.passes;
  fp.cache_mode = result.cache_mode;

  fp.add(result.timing.elapsed);
  fp.add(result.timing.max_object_bytes);
  fp.add(result.timing.total.disk);
  fp.add(result.timing.total.network);
  fp.add(result.timing.total.compute_local);
  fp.add(result.timing.total.ro_comm);
  fp.add(result.timing.total.global_red);
  fp.add(result.total_work.flops);
  fp.add(result.total_work.bytes);
  for (const auto& pass : result.timing.passes) {
    fp.add(pass.elapsed);
    fp.add(pass.max_object_bytes);
    fp.add(pass.timing.disk);
    fp.add(pass.timing.network);
    fp.add(pass.timing.compute_local);
    fp.add(pass.timing.ro_comm);
    fp.add(pass.timing.global_red);
    for (const double nc : pass.node_compute) fp.add(nc);
  }

  // Predictions inherit determinism from the profile; pin them too so a
  // nondeterministic collector or predictor cannot slip through.
  const core::Profile profile =
      core::ProfileCollector::from_result(setup, kernel.name(), result);
  core::PredictorOptions opts;
  opts.ipc = core::measure_ipc(setup.compute_cluster);
  core::ProfileConfig target = profile.config;
  target.data_nodes = 8;
  target.compute_nodes = 16;
  const core::PredictedTime predicted =
      core::Predictor(profile, opts).predict(target);
  fp.add(predicted.disk);
  fp.add(predicted.network);
  fp.add(predicted.compute);

  fp.trace_json = trace.to_chrome_json(false);
  fp.metrics_json = metrics.to_json(false);
  return fp;
}

/// The serial runtime is the reference: owned pools of 2 and 8 threads
/// must reproduce its fingerprint byte for byte. Returns the reference.
RunFingerprint expect_identical_across_pools(
    const std::function<RunFingerprint(const freeride::Runtime&)>& run) {
  RunFingerprint serial = run(freeride::Runtime());
  for (const std::size_t pool : {2, 8})
    expect_identical(serial, run(freeride::Runtime(pool)),
                     "serial vs pool of " + std::to_string(pool));
  return serial;
}

datagen::PointsDataset kmeans_points(std::uint64_t seed) {
  datagen::PointsSpec spec;
  spec.num_points = 2000;
  spec.dim = 4;
  spec.num_components = 3;
  spec.points_per_chunk = 100;
  spec.seed = seed;
  return datagen::generate_points(spec);
}

/// k-means with k = 3 over 4-D `data`; `fixed_passes` > 0 pins the pass
/// count, otherwise the kernel iterates to convergence.
apps::KMeansKernel kmeans_kernel(const datagen::PointsDataset& data,
                                 int fixed_passes = 0) {
  apps::KMeansParams params;
  params.k = 3;
  params.dim = 4;
  params.initial_centers =
      apps::initial_centers_from_dataset(data.dataset, 3, 4);
  if (fixed_passes > 0) params.fixed_passes = fixed_passes;
  return apps::KMeansKernel(params);
}

RunFingerprint expect_kmeans_identical_across_pools(
    const datagen::PointsDataset& data, const freeride::JobSetup& setup,
    int fixed_passes = 0) {
  return expect_identical_across_pools([&](const freeride::Runtime& runtime) {
    auto kernel = kmeans_kernel(data, fixed_passes);
    return fingerprint_run(runtime, setup, kernel);
  });
}

TEST(Determinism, KMeansBitIdenticalAcrossPoolSizes) {
  datagen::PointsSpec spec;
  spec.num_points = 4000;
  spec.dim = 4;
  spec.num_components = 3;
  spec.points_per_chunk = 200;
  spec.seed = 42;
  const auto data = datagen::generate_points(spec);
  EXPECT_GT(expect_kmeans_identical_across_pools(
                data, testing::pentium_setup(&data.dataset, 4, 8))
                .passes,
            1)
      << "want a genuinely iterative run";
}

TEST(Determinism, KMeansPentiumGridAcrossPools) {
  // fig02-style: iterative k-means at grid corners 1-1, 2-4 and 4-8.
  const auto data = kmeans_points(42);
  for (const auto& [n, c] : {std::pair{1, 1}, {2, 4}, {4, 8}}) {
    SCOPED_TRACE(std::to_string(n) + "-" + std::to_string(c));
    EXPECT_GT(expect_kmeans_identical_across_pools(
                  data, testing::pentium_setup(&data.dataset, n, c))
                  .passes,
              1)
        << "want a genuinely iterative run";
  }
}

/// fig05-style single-pass vortex detection over the flow field `spec`
/// describes, on 3 data and 6 compute nodes.
void expect_vortex_identical_across_pools(const datagen::FlowSpec& spec) {
  const auto flow = datagen::generate_flowfield(spec);
  expect_identical_across_pools([&](const freeride::Runtime& runtime) {
    apps::VortexKernel kernel(apps::VortexParams{});
    return fingerprint_run(runtime, testing::pentium_setup(&flow.dataset, 3, 6),
                           kernel);
  });
}

TEST(Determinism, VortexBitIdenticalAcrossPoolSizes) {
  // 12 chunks split evenly over the 3 data and 6 compute nodes.
  datagen::FlowSpec spec;
  spec.width = 96;
  spec.height = 96;
  spec.num_vortices = 4;
  spec.rows_per_chunk = 8;
  spec.seed = 7;
  expect_vortex_identical_across_pools(spec);
}

TEST(Determinism, VortexDetectionAcrossPools) {
  // 8 chunks split unevenly over the 3 data and 6 compute nodes.
  datagen::FlowSpec spec;
  spec.width = 64;
  spec.height = 64;
  spec.num_vortices = 3;
  spec.rows_per_chunk = 8;
  spec.seed = 11;
  expect_vortex_identical_across_pools(spec);
}

TEST(Determinism, MultiBlockReductionMatchesSerialRuntime) {
  // Enough chunks per compute node (48 chunks over 4 nodes = 12, well
  // above the 4-chunk block size) that the two-level reduction genuinely
  // splits every node into several chunk blocks. The default serial
  // Runtime() must produce the same bits as every pooled variant — owned
  // pools of each size and a borrowed shared pool (DESIGN.md §11).
  datagen::PointsSpec spec;
  spec.num_points = 4800;
  spec.dim = 4;
  spec.num_components = 3;
  spec.points_per_chunk = 100;
  spec.seed = 21;
  const auto data = datagen::generate_points(spec);

  const auto run_with = [&](const freeride::Runtime& runtime) {
    auto kernel = kmeans_kernel(data);
    return fingerprint_run(runtime, testing::pentium_setup(&data.dataset, 2, 4),
                           kernel);
  };

  const RunFingerprint serial = run_with(freeride::Runtime());
  for (const std::size_t pool : kPoolSizes)
    expect_identical(serial, run_with(freeride::Runtime(pool)),
                     "serial vs owned pool of " + std::to_string(pool));
  util::ThreadPool shared(2);
  expect_identical(serial, run_with(freeride::Runtime(&shared)),
                   "serial vs borrowed shared pool");
}

/// ext01-style cluster-of-SMPs on 2-4 nodes of 4 threads each: the
/// simulated SMP strategies reorder nothing observable, so every
/// (strategy, pool size) pair must agree with the serial baseline of the
/// same strategy bit-for-bit.
void expect_smp_strategies_identical_across_pools(
    const datagen::PointsDataset& data) {
  for (const auto strategy :
       {freeride::SmpStrategy::FullReplication,
        freeride::SmpStrategy::FullLocking,
        freeride::SmpStrategy::CacheSensitiveLocking}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.compute_cluster.machine.cores = 4;
    setup.config.threads_per_node = 4;
    setup.config.smp_strategy = strategy;
    expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/3);
  }
}

TEST(Determinism, SmpStrategiesStayDeterministicUnderHostPool) {
  // 12 chunks: 3 per compute node, so one thread per node stays idle.
  datagen::PointsSpec spec;
  spec.num_points = 1500;
  spec.dim = 4;
  spec.points_per_chunk = 125;
  expect_smp_strategies_identical_across_pools(
      datagen::generate_points(spec));
}

TEST(Determinism, SmpStrategiesAcrossPools) {
  // 20 chunks: 5 per compute node, so one thread per node takes a second
  // chunk and decides the node's time.
  expect_smp_strategies_identical_across_pools(kmeans_points(29));
}

TEST(Determinism, KMeansOpteronClusterAcrossPools) {
  // fig11-style heterogeneous target: the Opteron/Infiniband cluster.
  const auto data = kmeans_points(7);
  auto setup = testing::pentium_setup(&data.dataset, 4, 8);
  setup.data_cluster = sim::cluster_opteron_infiniband();
  setup.compute_cluster = sim::cluster_opteron_infiniband();
  expect_kmeans_identical_across_pools(data, setup);
}

TEST(Determinism, KMeansSlowWanAcrossPools) {
  // fig09/fig10-style bandwidth change: a 500 Kbps pipe makes network
  // time dominant.
  const auto data = kmeans_points(9);
  auto setup = testing::pentium_setup(&data.dataset, 2, 4);
  setup.wan = sim::wan_kbps(500);
  expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/3);
}

TEST(Determinism, LocalDiskCachingAcrossPools) {
  // abl01-style: later passes are served from compute-node local disk,
  // exercising the cache populate and read paths.
  const auto data = kmeans_points(13);
  auto setup = testing::pentium_setup(&data.dataset, 2, 4);
  setup.config.enable_caching = true;
  expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/4);
}

TEST(Determinism, NonLocalSiteCachingAcrossPools) {
  // ext02-style: local capacity is too small, so the runtime forwards the
  // chunks to a non-local cache site and reads them back from there.
  const auto data = kmeans_points(17);
  auto setup = testing::pentium_setup(&data.dataset, 2, 4);
  setup.config.enable_caching = true;
  setup.config.local_cache_capacity_bytes = 1.0;  // force the site
  freeride::CacheSiteSetup site;
  site.cluster = sim::cluster_pentium_myrinet();
  site.nodes = 2;
  site.wan_to_compute = sim::wan_mbps(200.0);
  setup.cache_site = site;
  expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/4);
}

TEST(Determinism, OverlappedPhasesAcrossPools) {
  // ext03-style pipelined execution: elapsed time is a max-composition of
  // the phases instead of their sum.
  const auto data = kmeans_points(19);
  auto setup = testing::pentium_setup(&data.dataset, 2, 4);
  setup.config.overlap_phases = true;
  expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/3);
}

TEST(Determinism, StragglersAcrossPools) {
  // abl05-style: two nodes run 3x slower, so the slow tail decides the
  // local-reduction phase.
  const auto data = kmeans_points(23);
  auto setup = testing::pentium_setup(&data.dataset, 2, 4);
  setup.config.straggler_count = 2;
  setup.config.straggler_slowdown = 3.0;
  expect_kmeans_identical_across_pools(data, setup, /*fixed_passes=*/3);
}

TEST(Determinism, SumKernelIdealClusterAcrossPools) {
  // Frictionless corner: on the ideal cluster most component times are
  // zero (zero-duration segments, signed-zero accumulation).
  const auto ds = testing::make_sum_dataset(24, 50);
  expect_identical_across_pools([&](const freeride::Runtime& runtime) {
    testing::SumKernelParams p;
    p.passes = 3;
    testing::SumKernel kernel(p);
    return fingerprint_run(runtime, testing::ideal_setup(&ds, 2, 4), kernel);
  });
}

TEST(Determinism, ResidualReportAcrossPools) {
  // The residual export (prediction-vs-exact decomposition) is the last
  // deterministic artifact a figure emits: profile collection and exact
  // runs on pools of 2 and 8 must reproduce the serial report's bytes.
  const auto data = kmeans_points(31);
  const auto report_for = [&](util::ThreadPool* pool) {
    auto profile_kernel = kmeans_kernel(data, /*fixed_passes=*/3);
    const auto base_setup = testing::pentium_setup(&data.dataset, 1, 1);
    const core::Profile base =
        core::ProfileCollector::collect(base_setup, profile_kernel, pool);
    core::PredictorOptions opts;
    opts.ipc = core::measure_ipc(base_setup.compute_cluster);
    const core::Predictor predictor(base, opts);

    obs::ResidualReport report;
    report.set_sweep("determinism");
    report.set_model("global-reduction");
    for (const auto& [n, c] : {std::pair{1, 2}, {2, 4}, {4, 8}}) {
      auto kernel = kmeans_kernel(data, /*fixed_passes=*/3);
      const auto actual = freeride::Runtime(pool).run(
          testing::pentium_setup(&data.dataset, n, c), kernel);
      core::ProfileConfig target = base.config;
      target.data_nodes = n;
      target.compute_nodes = c;
      report.add(core::make_residual_point(
          std::to_string(n) + "-" + std::to_string(c),
          predictor.predict(target), actual.timing.total));
    }
    return report.to_json();
  };

  const std::string serial = report_for(nullptr);
  for (const std::size_t threads : {2, 8}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(serial, report_for(&pool)) << "serial vs pool of " << threads;
  }
}

}  // namespace
}  // namespace fgp
