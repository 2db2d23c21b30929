// Tests for the prediction-as-a-service layer (DESIGN.md §16): sharded
// catalog snapshot semantics, GridCatalog parity, compiled-profile
// caching, batched selection bit-identity across pool sizes, and
// concurrent readers racing snapshot swaps (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ipc_probe.h"
#include "core/selector.h"
#include "grid/catalog.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/config.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fgp::service {
namespace {

core::Profile synthetic_profile(const std::string& app,
                                const std::string& cluster) {
  core::Profile p;
  p.app = app;
  p.config.data_nodes = 2;
  p.config.compute_nodes = 4;
  p.config.dataset_bytes = 350e6;
  p.config.bandwidth_Bps = 1e7;
  p.config.data_cluster = cluster;
  p.config.compute_cluster = cluster;
  p.t_disk = 30.0;
  p.t_network = 60.0;
  p.t_compute = 100.0;
  p.t_ro = 5.0;
  p.t_g = 3.0;
  p.object_bytes = 64e3;
  p.passes = 5;
  return p;
}

core::PredictorOptions synthetic_options() {
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes.ro = core::RoSizeClass::Constant;
  opts.classes.global = core::GlobalReductionClass::LinearConstant;
  return opts;
}

/// Registers the same small grid into both catalog implementations.
template <typename Catalog>
void populate(Catalog& cat) {
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();
  cat.register_repository_site({"repo-east", pentium, 8});
  cat.register_repository_site({"repo-west", pentium, 4});
  cat.register_compute_site({"hpc-pentium", pentium, 16});
  cat.register_compute_site({"hpc-opteron", opteron, 16});
  cat.register_link("repo-east", "hpc-pentium", sim::wan_mbps(80));
  cat.register_link("repo-east", "hpc-opteron", sim::wan_mbps(20));
  cat.register_link("repo-west", "hpc-pentium", sim::wan_mbps(30));
  cat.register_replica({"em-data", "repo-east", 4});
  cat.register_replica({"em-data", "repo-west", 2});
  cat.register_replica({"points", "repo-west", 1});
}

std::map<std::string, core::ScalingFactors> opteron_scalers() {
  return {{"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};
}

bool same_candidate(const grid::Candidate& a, const grid::Candidate& b) {
  return a.replica.dataset == b.replica.dataset &&
         a.replica.repository == b.replica.repository &&
         a.replica.storage_nodes == b.replica.storage_nodes &&
         a.compute_site == b.compute_site &&
         a.compute_nodes == b.compute_nodes &&
         a.wan.per_link_Bps == b.wan.per_link_Bps;
}

/// Both catalogs enumerate the same candidates for `dataset`, in order.
void expect_enumeration_parity(const grid::GridCatalog& flat,
                               const ShardedCatalog& sharded,
                               const std::string& dataset) {
  const auto expect = flat.enumerate_candidates(dataset);
  const auto got = ShardedCatalog::enumerate_candidates(
      *sharded.topology(), *sharded.shard_for(dataset), dataset);
  ASSERT_EQ(got.size(), expect.size())
      << dataset << " @" << sharded.shard_count();
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_candidate(got[i], expect[i]))
        << dataset << " candidate " << i << " @" << sharded.shard_count();
}

// ---------------------------------------------------------------------------
// ShardedCatalog

TEST(ShardedCatalog, ShardCountBoundsAreEnforced) {
  EXPECT_THROW(ShardedCatalog(0), util::ConfigError);
  EXPECT_THROW(ShardedCatalog(4097), util::ConfigError);
  // Validation must run before the shard vector is sized: a count this
  // large would otherwise die in allocation (bad_alloc), not ConfigError.
  EXPECT_THROW(ShardedCatalog(std::size_t{1} << 60), util::ConfigError);
  EXPECT_NO_THROW(ShardedCatalog(1));
  EXPECT_NO_THROW(ShardedCatalog(4096));
}

TEST(ShardedCatalog, ShardOfIsStableAndInRange) {
  for (std::size_t shards : {1u, 4u, 16u, 4096u}) {
    EXPECT_EQ(shard_of("em-data", shards), shard_of("em-data", shards));
    EXPECT_LT(shard_of("em-data", shards), shards);
  }
}

TEST(ShardedCatalog, ValidationMatchesGridCatalog) {
  ShardedCatalog cat(4);
  populate(cat);
  EXPECT_THROW(cat.register_compute_site(
                   {"hpc-pentium", sim::cluster_ideal(), 4}),
               util::Error);
  EXPECT_THROW(cat.register_replica({"x", "nope", 1}), util::Error);
  EXPECT_THROW(cat.register_replica({"x", "repo-west", 5}), util::Error);
  EXPECT_THROW(cat.register_link("repo-east", "nope", sim::wan_mbps(10)),
               util::Error);
}

TEST(ShardedCatalog, BulkRegisterIsAllOrNothing) {
  ShardedCatalog cat(4);
  populate(cat);
  const std::size_t before = cat.replica_count();
  std::vector<grid::Replica> batch = {{"ok", "repo-east", 2},
                                      {"bad", "repo-west", 99}};
  EXPECT_THROW(cat.register_replicas(std::move(batch)), util::Error);
  EXPECT_EQ(cat.replica_count(), before);
}

TEST(ShardedCatalog, EnumerationMatchesGridCatalogExactly) {
  grid::GridCatalog flat;
  populate(flat);
  for (std::size_t shards : {1u, 3u, 16u}) {
    ShardedCatalog sharded(shards);
    populate(sharded);
    for (const std::string dataset : {"em-data", "points", "unknown"})
      expect_enumeration_parity(flat, sharded, dataset);
  }
}

TEST(ShardedCatalog, RandomRegistrationsKeepGridCatalogOrder) {
  // A publish merges the stably sorted batch after a shard's existing
  // entries, so any mix of single and bulk registrations — repeated
  // datasets, names arriving unsorted — must keep every shard sorted and
  // registration order within each dataset (GridCatalog parity).
  constexpr int kDatasets = 17;
  util::Rng rng(20070326);
  std::vector<std::vector<grid::Replica>> batches(60);
  for (auto& batch : batches) {
    const std::size_t size =
        rng.next_below(3) == 0 ? 2 + rng.next_below(12) : 1;
    for (std::size_t i = 0; i < size; ++i) {
      const bool east = rng.next_below(2) == 0;
      batch.push_back({"ds-" + std::to_string(rng.next_below(kDatasets)),
                       east ? "repo-east" : "repo-west",
                       1 + static_cast<int>(rng.next_below(east ? 8 : 4))});
    }
  }
  grid::GridCatalog flat;
  populate(flat);
  for (const auto& batch : batches)
    for (const auto& r : batch) flat.register_replica(r);

  for (std::size_t shards : {1u, 3u, 16u}) {
    ShardedCatalog sharded(shards);
    populate(sharded);
    for (const auto& batch : batches) {
      if (batch.size() == 1)
        sharded.register_replica(batch.front());
      else
        sharded.register_replicas(batch);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& replicas = sharded.shard(s)->replicas;
      EXPECT_TRUE(std::is_sorted(
          replicas.begin(), replicas.end(),
          [](const grid::Replica& a, const grid::Replica& b) {
            return a.dataset < b.dataset;
          }))
          << "shard " << s << " of " << shards;
    }
    for (int d = 0; d < kDatasets; ++d)
      expect_enumeration_parity(flat, sharded, "ds-" + std::to_string(d));
    expect_enumeration_parity(flat, sharded, "em-data");
  }
}

TEST(ShardedCatalog, SnapshotSurvivesLaterPublishes) {
  ShardedCatalog cat(2);
  populate(cat);
  const auto topo = cat.topology();
  const auto shard = cat.shard_for("em-data");
  const std::size_t replicas_before = shard->replicas_of("em-data").size();
  cat.register_compute_site({"late", sim::cluster_ideal(), 8});
  cat.register_replica({"em-data", "repo-east", 2});
  // The held snapshots still describe the pre-publish catalog...
  EXPECT_EQ(topo->find_compute("late"), nullptr);
  EXPECT_EQ(shard->replicas_of("em-data").size(), replicas_before);
  // ...while fresh loads see the updates (and a bumped version).
  EXPECT_NE(cat.topology()->find_compute("late"), nullptr);
  EXPECT_GT(cat.topology()->version, topo->version);
  EXPECT_EQ(cat.shard_for("em-data")->replicas_of("em-data").size(),
            replicas_before + 1);
}

// ---------------------------------------------------------------------------
// ProfileCache

TEST(ProfileCache, ResolveCompilesOncePerTopologyVersion) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  unsigned long long hits = 0;
  unsigned long long misses = 0;
  const auto topo = cat.topology();
  const auto first = cache.resolve("em", topo, &hits, &misses);
  ASSERT_NE(first, nullptr);
  const auto second = cache.resolve("em", topo, &hits, &misses);
  EXPECT_EQ(first.get(), second.get());  // compiled state reused
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);

  // A topology publish invalidates the compiled state.
  cat.register_compute_site({"late", sim::cluster_opteron_infiniband(), 4});
  const auto third = cache.resolve("em", cat.topology(), &hits, &misses);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(misses, 2u);
  EXPECT_EQ(third->site_predictors.size(), 3u);
}

TEST(ProfileCache, UnknownAppResolvesNull) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  EXPECT_EQ(cache.resolve("nope", cat.topology()), nullptr);
}

TEST(ProfileCache, SitePredictorsMirrorSelectorRules) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  // No scalers: the opteron site must be unpredictable, the pentium site
  // predictable without hetero scaling.
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options());
  const auto compiled = cache.resolve("em", cat.topology());
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(compiled->site_predictors.size(), 2u);
  EXPECT_TRUE(compiled->site_predictors[0].predictable());
  EXPECT_FALSE(compiled->site_predictors[0].uses_hetero_scaling());
  EXPECT_FALSE(compiled->site_predictors[1].predictable());
}

// ---------------------------------------------------------------------------
// SelectionService

SelectionQuery em_query(double bytes = 700e6, int top_k = 4) {
  SelectionQuery q;
  q.app = "em";
  q.dataset = "em-data";
  q.dataset_bytes = bytes;
  q.top_k = top_k;
  return q;
}

TEST(SelectionService, AgreesWithResourceSelector) {
  grid::GridCatalog flat;
  populate(flat);
  ShardedCatalog sharded(4);
  populate(sharded);

  const auto profile = synthetic_profile("em", "pentium-myrinet");
  // Both engines share one contract: options.ipc is the profile
  // cluster's interconnect, and it seeds the hetero base predictor.
  auto opts = synthetic_options();
  opts.ipc = core::measure_ipc(sim::cluster_pentium_myrinet());
  SelectionService svc(&sharded);
  svc.register_app(profile, opts, opteron_scalers());
  const core::ResourceSelector selector(&flat, profile, opts,
                                        opteron_scalers());

  const auto expect = selector.rank("em-data", 700e6);
  const auto got = svc.query(em_query(700e6, 1 << 20));
  ASSERT_TRUE(got.ok()) << got.error;
  ASSERT_EQ(got.ranked.size(), expect.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    EXPECT_TRUE(same_candidate(got.ranked[i].candidate,
                               expect[i].candidate))
        << "rank " << i;
    EXPECT_EQ(got.ranked[i].predicted.total(), expect[i].predicted.total());
    EXPECT_EQ(got.ranked[i].predicted.disk, expect[i].predicted.disk);
    EXPECT_EQ(got.ranked[i].predicted.network, expect[i].predicted.network);
    EXPECT_EQ(got.ranked[i].predicted.compute, expect[i].predicted.compute);
    EXPECT_EQ(got.ranked[i].used_hetero_scaling,
              expect[i].used_hetero_scaling);
  }
}

TEST(SelectionService, BadQueriesFailAloneWithoutThrowing) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());                       // ok
  batch.push_back({});                               // empty app/dataset
  batch.push_back({"nope", "em-data", 1e6, 1});      // unknown app
  batch.push_back({"em", "missing", 1e6, 1});        // unknown dataset
  batch.push_back({"em", "em-data", -1.0, 1});       // bad bytes
  batch.push_back({"em", "em-data", 1e6, 0});        // bad top_k
  const auto results = svc.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_TRUE(results[0].ok());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_FALSE(results[i].ok()) << i;
  EXPECT_THROW(results[1].best(), util::Error);
}

TEST(SelectionService, TopKBoundsTheRanking) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  const auto full = svc.query(em_query(700e6, 1 << 20));
  const auto top2 = svc.query(em_query(700e6, 2));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(top2.ok());
  ASSERT_GE(full.ranked.size(), 2u);
  ASSERT_EQ(top2.ranked.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_candidate(top2.ranked[i].candidate,
                               full.ranked[i].candidate));
  }
  EXPECT_EQ(full.candidates_considered, top2.candidates_considered);
}

/// Builds a larger catalog + mixed query stream for the determinism and
/// concurrency tests.
struct BigFixture {
  ShardedCatalog catalog{16};
  std::vector<SelectionQuery> queries;

  BigFixture() {
    const auto pentium = sim::cluster_pentium_myrinet();
    const auto opteron = sim::cluster_opteron_infiniband();
    for (int r = 0; r < 4; ++r)
      catalog.register_repository_site(
          {"repo-" + std::to_string(r), pentium, 8});
    for (int c = 0; c < 6; ++c)
      catalog.register_compute_site(
          {"hpc-" + std::to_string(c), c % 2 == 0 ? pentium : opteron, 16});
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 6; ++c)
        if ((r + c) % 3 != 0)  // leave some pairs unreachable
          catalog.register_link("repo-" + std::to_string(r),
                                "hpc-" + std::to_string(c),
                                sim::wan_mbps(20.0 + 10.0 * (r + c)));
    std::vector<grid::Replica> replicas;
    for (int d = 0; d < 400; ++d)
      for (int r = 0; r < 1 + d % 3; ++r)
        replicas.push_back({"ds-" + std::to_string(d),
                            "repo-" + std::to_string((d + r) % 4),
                            1 << (d % 3)});
    catalog.register_replicas(std::move(replicas));

    util::Rng rng(2026);
    for (int i = 0; i < 96; ++i) {
      SelectionQuery q;
      q.app = i % 3 == 0 ? "em" : "kmeans";
      q.dataset = "ds-" + std::to_string(rng.next_below(400));
      q.dataset_bytes = rng.uniform(100e6, 4e9);
      q.top_k = 1 + static_cast<int>(rng.next_below(8));
      queries.push_back(std::move(q));
    }
  }

  void register_apps(SelectionService& svc) const {
    auto em_opts = synthetic_options();
    em_opts.classes.ro = core::RoSizeClass::LinearWithData;
    svc.register_app(synthetic_profile("em", "pentium-myrinet"), em_opts,
                     opteron_scalers());
    svc.register_app(synthetic_profile("kmeans", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  }
};

void expect_identical(const std::vector<SelectionResult>& a,
                      const std::vector<SelectionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].error, b[i].error) << i;
    EXPECT_EQ(a[i].candidates_considered, b[i].candidates_considered) << i;
    ASSERT_EQ(a[i].ranked.size(), b[i].ranked.size()) << i;
    for (std::size_t j = 0; j < a[i].ranked.size(); ++j) {
      EXPECT_TRUE(same_candidate(a[i].ranked[j].candidate,
                                 b[i].ranked[j].candidate))
          << i << "/" << j;
      // Bit-identical predictions, not merely close ones.
      EXPECT_EQ(a[i].ranked[j].predicted.disk, b[i].ranked[j].predicted.disk);
      EXPECT_EQ(a[i].ranked[j].predicted.network,
                b[i].ranked[j].predicted.network);
      EXPECT_EQ(a[i].ranked[j].predicted.compute,
                b[i].ranked[j].predicted.compute);
    }
  }
}

TEST(SelectionService, BatchBitIdenticalSerialVsPools128) {
  const BigFixture fx;
  SelectionService serial(&fx.catalog);
  fx.register_apps(serial);
  const auto reference = serial.query_batch(fx.queries);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    SelectionService pooled(&fx.catalog, &pool);
    fx.register_apps(pooled);
    expect_identical(pooled.query_batch(fx.queries), reference);
  }
}

TEST(SelectionService, DeterministicCountersAreByteIdenticalAcrossPools) {
  const BigFixture fx;
  std::vector<std::string> snapshots;
  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);
    svc.query_batch(fx.queries);
    svc.query_batch(fx.queries);  // second batch: cache hits this time
    EXPECT_EQ(metrics.value("service.queries"),
              2.0 * static_cast<double>(fx.queries.size()));
    EXPECT_GT(metrics.value("service.cache_hits"), 0.0);
    EXPECT_EQ(metrics.value("service.cache_misses"), 2.0);  // em + kmeans
    EXPECT_GT(metrics.value("service.shard_fanout"), 0.0);
    snapshots.push_back(metrics.to_json(false));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST(SelectionService, BatchLatencyHistogramLandsInHostDomain) {
  const BigFixture fx;
  obs::Registry metrics;
  SelectionService svc(&fx.catalog, nullptr, &metrics);
  fx.register_apps(svc);
  svc.query_batch(fx.queries);
  const std::string with_host = metrics.to_json(true);
  const std::string without = metrics.to_json(false);
  EXPECT_NE(with_host.find("service.batch_seconds"), std::string::npos);
  EXPECT_EQ(without.find("service.batch_seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent readers vs snapshot swaps (TSan stress targets)

TEST(SelectionService, ConcurrentQueriesRaceSnapshotSwaps) {
  BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  // One replica of a fresh dataset exists up front; the writer keeps
  // publishing more replicas and topology bumps while readers query.
  fx.catalog.register_replica({"hot", "repo-0", 1});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Bounded: every publish copies the whole topology, so an unbounded
    // writer on a small host turns quadratic.
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      fx.catalog.register_replica({"hot", "repo-" + std::to_string(i % 4),
                                   1 << (i % 3)});
      fx.catalog.register_compute_site(
          {"swap-" + std::to_string(i), sim::cluster_pentium_myrinet(), 4});
      // Snapshot-skew window: a batch that captured the topology before
      // these three publishes but loads the shard after them sees a "hot"
      // replica whose repository is missing from its topology. The service
      // must rank it as unreachable for that batch, not abort.
      const std::string fresh = "fresh-" + std::to_string(i);
      fx.catalog.register_repository_site(
          {fresh, sim::cluster_pentium_myrinet(), 4});
      fx.catalog.register_link(fresh, "hpc-1", sim::wan_mbps(40.0));
      fx.catalog.register_replica({"hot", fresh, 1});
    }
  });

  SelectionQuery hot;
  hot.app = "em";
  hot.dataset = "hot";
  hot.dataset_bytes = 1e9;
  hot.top_k = 3;
  std::vector<SelectionQuery> batch(16, hot);
  std::size_t last_considered = 0;
  for (int round = 0; round < 50; ++round) {
    const auto results = svc.query_batch(batch);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.error;
      // Replicas only accumulate, so within one batch (one shard
      // snapshot) every slot agrees, and across batches the candidate
      // count never shrinks.
      EXPECT_EQ(r.candidates_considered,
                results.front().candidates_considered);
    }
    EXPECT_GE(results.front().candidates_considered, last_considered);
    last_considered = results.front().candidates_considered;
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Service observability (PR 9): attaching the full instrumentation set
// must not perturb what the service computes.

TEST(SelectionService, ObserversDoNotChangeRankingsOrDeterministicMetrics) {
  const BigFixture fx;
  // Uninstrumented reference.
  obs::Registry plain_metrics;
  SelectionService plain(&fx.catalog, nullptr, &plain_metrics);
  fx.register_apps(plain);
  const auto reference = plain.query_batch(fx.queries);
  const std::string reference_metrics = plain_metrics.to_json(false);

  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);

    obs::TraceRecorder trace;
    trace.enable_host(true);
    obs::SlowQueryLog slowlog(0.0);  // threshold 0: every query logs
    obs::HdrHistogram latency;
    ServiceObservers observers;
    observers.trace = &trace;
    observers.slowlog = &slowlog;
    observers.latency = &latency;
    svc.set_observers(observers);

    expect_identical(svc.query_batch(fx.queries), reference);
    EXPECT_EQ(metrics.to_json(false), reference_metrics)
        << "instrumentation leaked into the deterministic domain";

    // The instrumentation itself saw every query: one latency sample and
    // one slow-query entry each, three phase spans plus one span per
    // query in the trace.
    EXPECT_EQ(latency.count(), fx.queries.size());
    EXPECT_GT(latency.quantile(0.99), 0.0);
    EXPECT_EQ(slowlog.seen(), fx.queries.size());
    EXPECT_EQ(trace.event_count(), fx.queries.size() + 3);
    const auto v = obs::validate_report_text(trace.to_chrome_json(true));
    EXPECT_EQ(v.kind, obs::ReportKind::Trace);
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
    // Latency is wall-clock: every service span is Host-domain and gone
    // from the byte-comparison export.
    EXPECT_EQ(trace.to_chrome_json(false).find("service/query"),
              std::string::npos);
  }
}

TEST(SelectionService, SlowQueryLogRecordsFailedQueriesWithTheirError) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  obs::SlowQueryLog slowlog(0.0);
  ServiceObservers observers;
  observers.slowlog = &slowlog;
  svc.set_observers(observers);

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());
  batch.push_back({"em", "missing", 1e6, 1});  // unknown dataset
  svc.query_batch(batch);
  const auto entries = slowlog.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].chosen.empty());
  EXPECT_TRUE(entries[0].error.empty());
  EXPECT_TRUE(entries[1].chosen.empty());
  EXPECT_FALSE(entries[1].error.empty());
}

TEST(SelectionService, ConcurrentBatchesShareOneHdrRecorderAndSlowlog) {
  // TSan stress target (CI runs *Concurrent* under --gtest_repeat): two
  // callers drive query_batch into one shared observer set. Per-task
  // latency slots are index-owned; the only cross-batch state is the
  // batch-end merge under the service's latency mutex and the internally
  // locked slowlog/trace sinks.
  const BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::SlowQueryLog slowlog(0.0, 32);
  obs::HdrHistogram latency;
  ServiceObservers observers;
  observers.trace = &trace;
  observers.slowlog = &slowlog;
  observers.latency = &latency;
  svc.set_observers(observers);

  constexpr std::size_t kRounds = 5;
  std::thread other([&] {
    for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  });
  for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  other.join();

  const std::size_t total = 2 * kRounds * fx.queries.size();
  EXPECT_EQ(latency.count(), total);
  EXPECT_EQ(slowlog.seen(), total);
  EXPECT_EQ(slowlog.entries().size(), 32u);
  EXPECT_EQ(trace.event_count(), 2 * kRounds * (fx.queries.size() + 3));
}

TEST(ProfileCache, ConcurrentResolveRacesTopologyPublishes) {
  ShardedCatalog cat(4);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      cat.register_compute_site(
          {"cache-swap-" + std::to_string(i),
           sim::cluster_opteron_infiniband(), 4});
    }
  });
  util::ThreadPool pool(8);
  pool.parallel_for(256, [&](std::size_t) {
    const auto topo = cat.topology();
    const auto compiled = cache.resolve("em", topo);
    ASSERT_NE(compiled, nullptr);
    // The compiled snapshot is internally consistent with the topology
    // it was compiled against — even if that topology is already stale.
    ASSERT_EQ(compiled->site_predictors.size(),
              compiled->topology->compute_sites.size());
  });
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Config / query parsing

TEST(ServiceConfig, DefaultsAndOverridesParse) {
  const auto def = parse_service_config("{}");
  EXPECT_EQ(def.shards, 16);
  EXPECT_EQ(def.max_top_k, 64);
  const auto cfg = parse_service_config(
      R"({"shards": 64, "max_top_k": 8, "max_batch": 1000})");
  EXPECT_EQ(cfg.shards, 64);
  EXPECT_EQ(cfg.max_top_k, 8);
  EXPECT_EQ(cfg.max_batch, 1000);
}

TEST(ServiceConfig, RejectsHostileValuesTyped) {
  EXPECT_THROW(parse_service_config("not json"), util::SerializationError);
  EXPECT_THROW(parse_service_config("[]"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 0})"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 4097})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 2.5})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": "many"})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"sharks": 4})"), util::ConfigError);
}

TEST(ServiceConfig, QueryBatchParsesAndEnforcesLimits) {
  ServiceConfig cfg;
  cfg.max_top_k = 4;
  cfg.max_batch = 2;
  const auto queries = parse_query_batch(
      R"([{"app": "em", "dataset": "ds-1", "dataset_bytes": 1e9,
           "top_k": 4},
          {"app": "kmeans", "dataset": "ds-2", "dataset_bytes": 2e8}])",
      cfg);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].app, "em");
  EXPECT_EQ(queries[0].top_k, 4);
  EXPECT_EQ(queries[1].top_k, 1);

  EXPECT_THROW(parse_query_batch(
                   R"([{"app": "a", "dataset": "d", "dataset_bytes": 1,
                        "top_k": 5}])",
                   cfg),
               util::ConfigError);
  EXPECT_THROW(
      parse_query_batch(
          R"([{"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1}])",
          cfg),
      util::ConfigError);
}

}  // namespace
}  // namespace fgp::service
