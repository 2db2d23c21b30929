// test_obs.cpp — the observability layer's contracts: byte-identical
// trace/metrics exports across host pool sizes (DESIGN.md §12), Chrome-trace
// shape via the shared validator, registry semantics, residual reports,
// per-node pass timing and the overlap-mode elapsed pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>
#include <string>
#include <utility>

#include "core/predictor.h"
#include "core/profile.h"
#include "core/residuals.h"
#include "helpers.h"
#include "obs/drift.h"
#include "obs/hdr.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/pool.h"
#include "obs/residual.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "repository/payload.h"
#include "repository/store.h"
#include "repository/stream.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fgp {
namespace {

struct TracedRun {
  std::string trace_json;    ///< to_chrome_json(false): host stripped
  std::string metrics_json;  ///< to_json(false): host stripped
  freeride::RunResult result;
};

/// One fixed multi-pass job on the Pentium cluster with both sinks
/// attached; exports are taken in byte-comparison mode.
TracedRun run_traced(util::ThreadPool* pool, bool caching = false) {
  const auto ds = testing::make_sum_dataset(24, 64);
  testing::SumKernelParams params;
  params.passes = 3;
  testing::SumKernel kernel(params);
  auto setup = testing::pentium_setup(&ds, 2, 4);
  setup.config.enable_caching = caching;
  obs::TraceRecorder trace;
  obs::Registry metrics;
  setup.trace = &trace;
  setup.metrics = &metrics;
  auto result = freeride::Runtime(pool).run(setup, kernel);
  return {trace.to_chrome_json(false), metrics.to_json(false),
          std::move(result)};
}

TEST(Obs, TraceAndMetricsByteIdenticalAcrossPoolSizes) {
  const TracedRun serial = run_traced(nullptr);
  ASSERT_FALSE(serial.trace_json.empty());
  ASSERT_FALSE(serial.metrics_json.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const TracedRun pooled = run_traced(&pool);
    EXPECT_EQ(serial.trace_json, pooled.trace_json)
        << "trace diverged at pool size " << threads;
    EXPECT_EQ(serial.metrics_json, pooled.metrics_json)
        << "metrics diverged at pool size " << threads;
  }
}

TEST(Obs, TraceValidatesAndHostEventsStrip) {
  const auto ds = testing::make_sum_dataset(8, 32);
  testing::SumKernel kernel;
  auto setup = testing::pentium_setup(&ds, 1, 2);
  obs::TraceRecorder trace;
  trace.enable_host(true);
  setup.trace = &trace;
  freeride::Runtime().run(setup, kernel);

  const std::string with_host = trace.to_chrome_json(true);
  const std::string without = trace.to_chrome_json(false);
  for (const std::string& text : {with_host, without}) {
    const auto v = obs::validate_report_text(text);
    EXPECT_EQ(v.kind, obs::ReportKind::Trace);
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
  }
  // The runtime records its HostSpan("runtime", "run") on the host pid;
  // byte-comparison mode must drop it.
  EXPECT_NE(with_host.find("\"pid\": 10000"), std::string::npos);
  EXPECT_EQ(without.find("\"pid\": 10000"), std::string::npos);
  // Virtual phase spans survive either way.
  for (const char* needle :
       {"local-reduction", "network-transfer", "ro-comm", "global-reduction",
        "retrieval/repository"}) {
    EXPECT_NE(without.find(needle), std::string::npos) << needle;
  }
}

TEST(Obs, RuntimeRecordsExpectedCounters) {
  const TracedRun run = run_traced(nullptr);
  const auto doc = obs::json::parse(run.metrics_json);
  const auto v = obs::validate_report(doc);
  EXPECT_EQ(v.kind, obs::ReportKind::Metrics);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());

  // Re-run to read values straight off a registry.
  const auto ds = testing::make_sum_dataset(24, 64);
  testing::SumKernelParams params;
  params.passes = 3;
  testing::SumKernel kernel(params);
  auto setup = testing::pentium_setup(&ds, 2, 4);
  obs::Registry metrics;
  setup.metrics = &metrics;
  freeride::Runtime().run(setup, kernel);
  EXPECT_DOUBLE_EQ(metrics.value("runtime.passes"), 3.0);
  // Without caching every pass retrieves all 24 chunks from the repository.
  EXPECT_DOUBLE_EQ(metrics.value("runtime.chunks.repository"), 72.0);
  EXPECT_GT(metrics.value("wan.repo-compute.bytes"), 0.0);
  // One metered transfer per data node per pass: 2 nodes x 3 passes.
  EXPECT_DOUBLE_EQ(metrics.value("wan.repo-compute.transfers"), 6.0);
  EXPECT_GT(metrics.value("runtime.max_object_bytes"), 0.0);
}

TEST(Obs, CachingSplitsChunkCountersByTier) {
  const auto ds = testing::make_sum_dataset(24, 64);
  testing::SumKernelParams params;
  params.passes = 3;
  testing::SumKernel kernel(params);
  auto setup = testing::pentium_setup(&ds, 2, 4);
  setup.config.enable_caching = true;
  obs::Registry metrics;
  setup.metrics = &metrics;
  freeride::Runtime().run(setup, kernel);
  // Pass 0 populates the per-node caches; passes 1 and 2 hit them.
  EXPECT_DOUBLE_EQ(metrics.value("cache.inserted_chunks"), 24.0);
  EXPECT_GT(metrics.value("cache.inserted_bytes"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("runtime.chunks.repository"), 24.0);
  EXPECT_DOUBLE_EQ(metrics.value("runtime.chunks.local-cache"), 48.0);
}

TEST(Obs, PassRecordTracksPerNodeComputeTime) {
  const TracedRun run = run_traced(nullptr);
  const auto& passes = run.result.timing.passes;
  ASSERT_EQ(passes.size(), 3u);
  for (const auto& rec : passes) {
    ASSERT_EQ(rec.node_compute.size(), 4u);
    double slowest = 0.0;
    for (const double t : rec.node_compute) {
      EXPECT_GT(t, 0.0);
      slowest = std::max(slowest, t);
    }
    EXPECT_DOUBLE_EQ(slowest, rec.timing.compute_local);
  }
}

// Pins the JobTiming::elapsed contract the header documents: additive mode
// sums every phase; overlap mode takes max(disk, network, local) + the
// serialized parts, which is *strictly* less whenever all three pipelined
// phases take non-zero time.
TEST(Obs, OverlapElapsedStrictlyBelowAdditiveTotal) {
  const auto ds = testing::make_sum_dataset(24, 64);

  auto run_with = [&](bool overlap) {
    testing::SumKernelParams params;
    params.passes = 2;
    testing::SumKernel kernel(params);
    auto setup = testing::pentium_setup(&ds, 2, 4);
    setup.config.overlap_phases = overlap;
    return freeride::Runtime().run(setup, kernel);
  };

  const auto additive = run_with(false);
  EXPECT_DOUBLE_EQ(additive.timing.elapsed, additive.timing.total.total());

  const auto overlapped = run_with(true);
  double expected_elapsed = 0.0;
  for (const auto& rec : overlapped.timing.passes) {
    ASSERT_GT(rec.timing.disk, 0.0);
    ASSERT_GT(rec.timing.network, 0.0);
    ASSERT_GT(rec.timing.compute_local, 0.0);
    EXPECT_LT(rec.elapsed, rec.timing.total());
    EXPECT_DOUBLE_EQ(rec.elapsed,
                     std::max({rec.timing.disk, rec.timing.network,
                               rec.timing.compute_local}) +
                         rec.timing.ro_comm + rec.timing.global_red);
    expected_elapsed += rec.elapsed;
  }
  EXPECT_DOUBLE_EQ(overlapped.timing.elapsed, expected_elapsed);
  EXPECT_LT(overlapped.timing.elapsed, overlapped.timing.total.total());
}

TEST(Obs, RegistrySemantics) {
  obs::Registry reg;
  reg.add("c", 2.0);
  reg.add("c", 3.0);
  EXPECT_DOUBLE_EQ(reg.value("c"), 5.0);
  reg.set("g", 7.0);
  reg.set("g", 4.0);
  EXPECT_DOUBLE_EQ(reg.value("g"), 4.0);
  reg.set_max("m", 1.0);
  reg.set_max("m", 9.0);
  reg.set_max("m", 3.0);
  EXPECT_DOUBLE_EQ(reg.value("m"), 9.0);
  EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);

  reg.observe("h", 1e-3);
  reg.observe("h", 1e2);
  reg.add("host.only", 1.0, obs::Domain::Host);

  const std::string with_host = reg.to_json(true);
  const std::string without = reg.to_json(false);
  for (const std::string& text : {with_host, without}) {
    const auto v = obs::validate_report_text(text);
    EXPECT_EQ(v.kind, obs::ReportKind::Metrics);
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
  }
  EXPECT_NE(with_host.find("host.only"), std::string::npos);
  EXPECT_EQ(without.find("host.only"), std::string::npos);

  reg.clear();
  EXPECT_DOUBLE_EQ(reg.value("c"), 0.0);
}

// --- store counters -------------------------------------------------------

/// A small dataset saved under a fresh temp root with `metrics` attached.
repository::DatasetStore saved_store(const std::filesystem::path& root,
                                     obs::Registry* metrics) {
  std::filesystem::remove_all(root);
  repository::DatasetStore store(root, nullptr, metrics);
  repository::ChunkedDataset ds(repository::DatasetMeta{"counters", "f64", 3});
  ds.add_chunk(repository::make_chunk<double>(0, {1, 2, 3}, 2.0));
  ds.add_chunk(repository::make_chunk<double>(1, {4, 5}, 2.0));
  ds.add_chunk(repository::make_chunk<double>(2, {6}, 2.0));
  store.save(ds);
  return store;
}

TEST(Obs, StoreCountersSymmetricAcrossSaveAndLoad) {
  // Load-side counters mirror save-side ones exactly: every byte written
  // is read back, so loaded_bytes == saved_bytes and chunk counts match.
  const auto root =
      std::filesystem::temp_directory_path() / "fgp_obs_store_sym";
  obs::Registry metrics;
  const auto store = saved_store(root, &metrics);
  (void)store.load("counters");
  EXPECT_DOUBLE_EQ(metrics.value("store.saved_chunks"), 3.0);
  EXPECT_DOUBLE_EQ(metrics.value("store.loaded_chunks"),
                   metrics.value("store.saved_chunks"));
  EXPECT_GT(metrics.value("store.saved_bytes"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("store.loaded_bytes"),
                   metrics.value("store.saved_bytes"));
  std::filesystem::remove_all(root);
}

TEST(Obs, StreamerCountersSplitDomains) {
  // The streaming window layer (DESIGN.md §15) records its byte totals in
  // the deterministic domain (fixed by the fetch sequence) and its
  // timing-dependent pool activity (maps, recycles) in the host domain, so
  // streamed runs export byte-identically.
  if (!repository::PayloadBuffer::mmap_supported())
    GTEST_SKIP() << "no mmap on this platform; load_streamed falls back";
  const auto root =
      std::filesystem::temp_directory_path() / "fgp_obs_store_streamer";
  obs::Registry metrics;
  const auto store = saved_store(root, &metrics);
  metrics.clear();  // drop the save-side counters

  const auto streamed = store.load_streamed("counters");
  for (std::size_t i = 0; i < streamed.chunk_count(); ++i)
    (void)streamed.materialize(i);

  EXPECT_DOUBLE_EQ(metrics.value("store.windowed_bytes"), 48.0);  // 6 f64
  EXPECT_DOUBLE_EQ(metrics.value("store.stitched_chunks"), 0.0);
  EXPECT_GT(metrics.host_value("store.window_maps"), 0.0);

  const std::string deterministic = metrics.to_json(false);
  EXPECT_NE(deterministic.find("store.windowed_bytes"), std::string::npos);
  EXPECT_EQ(deterministic.find("store.window_maps"), std::string::npos);
  // Both export modes stay valid metrics snapshots.
  EXPECT_TRUE(obs::validate_report_text(deterministic).ok());
  EXPECT_TRUE(obs::validate_report_text(metrics.to_json(true)).ok());
  std::filesystem::remove_all(root);
}

TEST(Obs, StreamedRuntimeKeepsDeterministicExportsByteIdentical) {
  // Streaming is purely a host IO concern: a runtime pass pulling chunks
  // through budget-bounded windows leaves the virtual-time trace and
  // deterministic metrics byte-identical to the in-memory run.
  if (!repository::PayloadBuffer::mmap_supported())
    GTEST_SKIP() << "no mmap on this platform; load_streamed falls back";
  const TracedRun reference = run_traced(nullptr);

  const auto root =
      std::filesystem::temp_directory_path() / "fgp_obs_streamed_run";
  std::filesystem::remove_all(root);
  const repository::DatasetStore store(root);
  const auto ds = testing::make_sum_dataset(24, 64);
  store.save(ds);
  repository::StreamConfig cfg;
  cfg.window_bytes = 1;  // one page per window
  cfg.budget_bytes = 8192;
  const auto streamed = store.load_streamed(ds.meta().name, cfg);
  ASSERT_TRUE(streamed.streamed());

  testing::SumKernelParams params;
  params.passes = 3;
  testing::SumKernel kernel(params);
  auto setup = testing::pentium_setup(&streamed, 2, 4);
  obs::TraceRecorder trace;
  obs::Registry metrics;
  setup.trace = &trace;
  setup.metrics = &metrics;
  util::ThreadPool pool(4);
  const auto result = freeride::Runtime(&pool).run(setup, kernel);

  EXPECT_EQ(trace.to_chrome_json(false), reference.trace_json);
  EXPECT_EQ(metrics.to_json(false), reference.metrics_json);
  EXPECT_EQ(result.timing.elapsed, reference.result.timing.elapsed);
  std::filesystem::remove_all(root);
}

TEST(Obs, TraceRecorderRejectsOutOfOrderSpans) {
  obs::TraceRecorder trace;
  EXPECT_THROW(trace.span("cat", "bad", obs::kJobNode, 0, 2.0, 1.0),
               util::Error);
  EXPECT_THROW(trace.span("cat", "bad", obs::kJobNode, 0, -1.0, 1.0),
               util::Error);
  trace.span("cat", "good", obs::kJobNode, 0, 1.0, 2.0);
  EXPECT_EQ(trace.event_count(), 1u);
  trace.clear();
  EXPECT_EQ(trace.event_count(), 0u);
}

TEST(Obs, ResidualReportRoundTrip) {
  core::PredictedTime predicted;
  predicted.disk = 1.0;
  predicted.network = 2.0;
  predicted.compute_local = 3.0;
  predicted.ro_comm = 0.5;
  predicted.global_red = 0.25;
  predicted.compute =
      predicted.compute_local + predicted.ro_comm + predicted.global_red;

  freeride::TimingBreakdown observed;
  observed.disk = 1.1;
  observed.network = 1.9;
  observed.compute_local = 3.2;
  observed.ro_comm = 0.5;
  observed.global_red = 0.3;

  const auto point = core::make_residual_point("2-4", predicted, observed);
  EXPECT_EQ(point.label, "2-4");
  EXPECT_DOUBLE_EQ(point.predicted.total(), predicted.total());
  EXPECT_DOUBLE_EQ(point.observed.total(), observed.total());
  EXPECT_NEAR(point.residual().disk, -0.1, 1e-12);
  EXPECT_NEAR(point.rel_error_total(),
              std::abs(predicted.total() - observed.total()) / observed.total(),
              1e-12);

  obs::ResidualReport report("unit-sweep", "global-reduction");
  report.add(point);
  const auto v = obs::validate_report_text(report.to_json());
  EXPECT_EQ(v.kind, obs::ReportKind::Residuals);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
}

// The predictor's component split must stay consistent with its total —
// the residual reports subtract these per component.
TEST(Obs, PredictedTimeComponentSplitSumsToCompute) {
  const auto ds = testing::make_sum_dataset(16, 32);
  testing::SumKernel kernel;
  auto setup = testing::pentium_setup(&ds, 1, 1);
  util::ThreadPool* const no_pool = nullptr;
  const auto profile = core::ProfileCollector::collect(setup, kernel, no_pool);
  for (const auto model : {core::PredictionModel::NoCommunication,
                           core::PredictionModel::ReductionCommunication,
                           core::PredictionModel::GlobalReduction}) {
    core::PredictorOptions opts;
    opts.model = model;
    auto target = profile.config;
    target.data_nodes = 2;
    target.compute_nodes = 4;
    const auto t = core::Predictor(profile, opts).predict(target);
    EXPECT_NEAR(t.compute, t.compute_local + t.ro_comm + t.global_red, 1e-12);
    EXPECT_GE(t.compute_local, 0.0);
    EXPECT_GE(t.ro_comm, 0.0);
    EXPECT_GE(t.global_red, 0.0);
  }
}

TEST(Obs, PoolTracingAndHostStats) {
  util::ThreadPool pool(2);
  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::attach_pool_tracing(pool, &trace);
  std::atomic<int> hits{0};
  pool.parallel_for(64, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64);
  EXPECT_GE(trace.event_count(), 1u);
  obs::attach_pool_tracing(pool, nullptr);

  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 1ull);
  EXPECT_GE(stats.blocks_total, 1ull);

  // Pool stats are host-domain: present with host, gone without.
  obs::Registry reg;
  obs::record_pool_stats(stats, reg);
  EXPECT_NE(reg.to_json(true).find("pool.parallel_for_calls"),
            std::string::npos);
  EXPECT_EQ(reg.to_json(false).find("pool.parallel_for_calls"),
            std::string::npos);

  // The pool span lands on the segregated host pid and strips cleanly.
  const std::string with_host = trace.to_chrome_json(true);
  EXPECT_NE(with_host.find("parallel_for"), std::string::npos);
  EXPECT_EQ(trace.to_chrome_json(false).find("parallel_for"),
            std::string::npos);
}

// --- obs::Histogram decade-edge boundary math (PR 9 satellite) -----------

TEST(Obs, HistogramObserveMatchesUpperBoundAtEveryDecadeEdge) {
  // The log10-indexed observe must agree with the documented boundary
  // semantics — smallest b with v <= upper_bound(b) — exactly at every
  // decade edge and one ulp past it.
  for (int b = 0; b < obs::Histogram::kBuckets - 1; ++b) {
    const double edge = obs::Histogram::upper_bound(b);
    {
      obs::Histogram h;
      h.observe(edge);  // inclusive upper bound: lands in bucket b
      EXPECT_EQ(h.buckets[static_cast<std::size_t>(b)], 1u)
          << "edge of bucket " << b;
    }
    {
      obs::Histogram h;
      h.observe(std::nextafter(edge, HUGE_VAL));  // one ulp past: bucket b+1
      EXPECT_EQ(h.buckets[static_cast<std::size_t>(b) + 1], 1u)
          << "past the edge of bucket " << b;
    }
  }
  obs::Histogram h;
  h.observe(0.0);                 // below the first edge
  h.observe(-1.0);                // negative clamps into bucket 0
  h.observe(std::nan(""));        // NaN clamps into bucket 0
  EXPECT_EQ(h.buckets[0], 3u);
  h.observe(1e30);                // far past the last edge: overflow bucket
  EXPECT_EQ(h.buckets[obs::Histogram::kBuckets - 1], 1u);
}

TEST(Obs, HistogramObserveMatchesLinearScanReference) {
  // Against the retired linear scan over a log sweep three decades wider
  // than the bucket range on each side.
  util::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = std::pow(10.0, rng.uniform(-12.0, 8.0));
    int want = 0;
    while (want < obs::Histogram::kBuckets - 1 &&
           v > obs::Histogram::upper_bound(want))
      ++want;
    obs::Histogram h;
    h.observe(v);
    EXPECT_EQ(h.buckets[static_cast<std::size_t>(want)], 1u) << "v=" << v;
  }
}

// --- HDR latency histograms ----------------------------------------------

TEST(Obs, HdrBucketIndexRespectsBoundedRelativeError) {
  // Every bucket's upper edge maps back into that bucket, the next
  // nanosecond into the following one, and the bucket width never
  // exceeds 1/32 of its lower edge (the advertised ~3.1% bound).
  for (const std::uint64_t ns :
       {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull, 1000ull, 27000ull,
        1000000ull, 123456789ull, 1ull << 40, (1ull << 63) + 12345ull}) {
    const std::size_t idx = obs::HdrHistogram::bucket_index(ns);
    ASSERT_LT(idx, obs::HdrHistogram::kBucketCount);
    const std::uint64_t edge = obs::HdrHistogram::bucket_upper_edge(idx);
    EXPECT_GE(edge, ns);
    if (edge < ~0ull) {
      EXPECT_EQ(obs::HdrHistogram::bucket_index(edge + 1), idx + 1);
    }
    if (ns >= obs::HdrHistogram::kSubBuckets) {
      const std::uint64_t lower =
          obs::HdrHistogram::bucket_upper_edge(idx - 1) + 1;
      EXPECT_LE(edge - lower + 1, lower / 32 + 1) << "ns=" << ns;
    }
  }
  // The extremes stay in range.
  EXPECT_EQ(obs::HdrHistogram::bucket_index(~0ull),
            obs::HdrHistogram::kBucketCount - 1);
  EXPECT_EQ(obs::HdrHistogram::bucket_upper_edge(
                obs::HdrHistogram::kBucketCount - 1),
            ~0ull);
}

TEST(Obs, HdrQuantilesBoundedErrorAndExactExtremes) {
  obs::HdrHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 1..1000 µs uniformly: p50 ~ 500 µs, p99 ~ 990 µs, within 3.2%.
  for (int i = 1; i <= 1000; ++i)
    h.observe_seconds(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.50), 500e-6, 500e-6 * 0.032);
  EXPECT_NEAR(h.quantile(0.99), 990e-6, 990e-6 * 0.032);
  // min/max are tracked exactly and clamp the quantile read-back: the
  // top quantile is exactly max, the bottom within one bucket of min.
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1000e-6);
  EXPECT_GE(h.quantile(0.0), h.min_seconds());
  EXPECT_NEAR(h.quantile(0.0), h.min_seconds(), h.min_seconds() * 0.032);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max_seconds());
  EXPECT_NEAR(h.sum_seconds(), 500500e-6, 1e-6);
  // Hostile inputs clamp instead of corrupting the counts.
  h.observe_seconds(-1.0);
  h.observe_seconds(std::nan(""));
  EXPECT_EQ(h.count(), 1002u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.0);
}

/// Records kValues deterministic latencies partitioned over `recorders`
/// per-thread recorders (parallel when a pool is given), merges them in
/// index order and returns the canonical JSON export.
std::string hdr_merged_json(util::ThreadPool* pool, std::size_t recorders) {
  constexpr std::size_t kValues = 20000;
  const auto value_ns = [](std::size_t i) {
    // Spreads across five decades deterministically.
    return 100 + (i * 1000003ull) % 10000000ull;
  };
  std::vector<obs::HdrHistogram> per_thread(recorders);
  const auto record_slice = [&](std::size_t r) {
    for (std::size_t i = r; i < kValues; i += recorders)
      per_thread[r].observe_ns(value_ns(i));
  };
  if (pool == nullptr) {
    for (std::size_t r = 0; r < recorders; ++r) record_slice(r);
  } else {
    pool->parallel_for(recorders, record_slice);
  }
  obs::HdrHistogram merged;
  for (std::size_t r = 0; r < recorders; ++r) merged.merge(per_thread[r]);
  return merged.to_json_object();
}

TEST(Obs, HdrMergeByteIdenticalAcrossPoolSizes) {
  // The §17 contract: per-thread recorders merged in index order export
  // byte-identically no matter how the recording work was scheduled —
  // serial, or pools of 1/2/8 threads — and no matter how many
  // recorders partition the stream (integral state commutes).
  const std::string reference = hdr_merged_json(nullptr, 1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(hdr_merged_json(&pool, threads), reference)
        << "HDR merge diverged at pool size " << threads;
  }
  EXPECT_EQ(hdr_merged_json(nullptr, 7), reference);
}

// --- slow-query log -------------------------------------------------------

TEST(Obs, SlowQueryLogRingKeepsNewestAndCountsSeen) {
  obs::SlowQueryLog log(0.01, 2);
  const auto entry = [](const char* dataset, double latency) {
    obs::SlowQueryEntry e;
    e.app = "em";
    e.dataset = dataset;
    e.latency_s = latency;
    e.candidates_considered = 5;
    e.chosen = "repo-1/hpc-2/4";
    e.topology_version = 9;
    return e;
  };
  log.maybe_record(entry("fast", 0.005));   // under threshold: dropped
  log.maybe_record(entry("a", 0.02));
  log.maybe_record(entry("b", 0.03));
  log.maybe_record(entry("c", 0.04));       // evicts "a"
  EXPECT_EQ(log.seen(), 3u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].dataset, "b");  // oldest surviving first
  EXPECT_EQ(entries[1].dataset, "c");

  const auto v = obs::validate_report_text(log.to_json());
  EXPECT_EQ(v.kind, obs::ReportKind::Slowlog);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
  log.clear();
  EXPECT_EQ(log.seen(), 0u);
  EXPECT_TRUE(log.entries().empty());
}

// --- drift monitor --------------------------------------------------------

obs::ResidualPoint drift_point(double predicted_disk, double observed_disk) {
  obs::ResidualPoint pt;
  pt.label = "p";
  pt.predicted = {predicted_disk, 2.0, 3.0, 0.5, 0.25};
  pt.observed = {observed_disk, 2.0, 3.0, 0.5, 0.25};
  return pt;
}

TEST(Obs, DriftMonitorStaysSteadyOnMatchingStream) {
  obs::DriftMonitor drift;
  for (int i = 0; i < 200; ++i) drift.observe(drift_point(1.0, 1.0));
  EXPECT_EQ(drift.points(), 200u);
  for (int c = 0; c < obs::DriftMonitor::kComponents; ++c) {
    EXPECT_DOUBLE_EQ(drift.ewma(c), 0.0);
    EXPECT_DOUBLE_EQ(drift.window_mean(c), 0.0);
    EXPECT_DOUBLE_EQ(drift.window_variance(c), 0.0);
    EXPECT_FALSE(drift.drifting(c));
  }
  EXPECT_FALSE(drift.any_drifting());
  const auto v = obs::validate_report_text(drift.to_json());
  EXPECT_EQ(v.kind, obs::ReportKind::Drift);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
}

TEST(Obs, DriftMonitorFlagsDriftingComponentAndRecovers) {
  obs::DriftMonitor drift;
  // The disk model under-predicts by half the observed total: the signed
  // relative residual is (1 - 3) / (3 + 2 + 3 + 0.5 + 0.25) ~ -0.229,
  // past the default 0.1 band once the EWMA converges.
  for (int i = 0; i < 50; ++i) drift.observe(drift_point(1.0, 3.0));
  EXPECT_TRUE(drift.drifting(0)) << "disk ewma " << drift.ewma(0);
  EXPECT_LT(drift.ewma(0), -0.1);
  for (int c = 1; c < obs::DriftMonitor::kComponents; ++c)
    EXPECT_FALSE(drift.drifting(c));
  EXPECT_TRUE(drift.any_drifting());
  EXPECT_NE(drift.to_json().find("\"drifting\": true"), std::string::npos);

  // A corrected model decays the EWMA back inside the band.
  for (int i = 0; i < 50; ++i) drift.observe(drift_point(1.0, 1.0));
  EXPECT_FALSE(drift.any_drifting());
  // Monitor state is a pure function of the fed sequence: a second
  // monitor fed the same stream exports byte-identically.
  obs::DriftMonitor replay;
  for (int i = 0; i < 50; ++i) replay.observe(drift_point(1.0, 3.0));
  for (int i = 0; i < 50; ++i) replay.observe(drift_point(1.0, 1.0));
  EXPECT_EQ(drift.to_json(), replay.to_json());
}

TEST(Obs, DriftMonitorWindowStatsAndConfigValidation) {
  obs::DriftConfig config;
  config.window = 4;
  obs::DriftMonitor drift(config);
  // Alternating over/under prediction: window mean ~0, variance > 0.
  for (int i = 0; i < 16; ++i)
    drift.observe(drift_point(i % 2 == 0 ? 1.2 : 0.8, 1.0));
  EXPECT_NEAR(drift.window_mean(0), 0.0, 1e-12);
  EXPECT_GT(drift.window_variance(0), 0.0);
  // Points with no usable observation are counted but change nothing.
  obs::ResidualPoint zero;
  drift.observe(zero);
  EXPECT_EQ(drift.points(), 17u);

  EXPECT_THROW(obs::DriftMonitor(obs::DriftConfig{0.0, 64, 0.1}),
               util::ConfigError);
  EXPECT_THROW(obs::DriftMonitor(obs::DriftConfig{1.5, 64, 0.1}),
               util::ConfigError);
  EXPECT_THROW(obs::DriftMonitor(obs::DriftConfig{0.2, 0, 0.1}),
               util::ConfigError);
  EXPECT_THROW(obs::DriftMonitor(obs::DriftConfig{0.2, 64, -1.0}),
               util::ConfigError);
}

}  // namespace
}  // namespace fgp
