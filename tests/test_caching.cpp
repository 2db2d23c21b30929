// Tests for the extended caching subsystem: capacity-gated local caching,
// non-local cache sites, each data tier's deterministic exports, the
// overlap execution mode, and the cache planner's agreement with the
// simulated ground truth.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/cache_planner.h"
#include "freeride/runtime.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace fgp::freeride {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::SumKernelParams;
using fgp::testing::expected_sum;
using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;

/// A cache site on fast hardware one hop from the compute cluster.
CacheSiteSetup nearby_cache_site(int nodes = 2, double mbps = 400.0) {
  CacheSiteSetup site;
  site.cluster = sim::cluster_opteron_infiniband();
  site.cluster.name = "cache-site";
  site.nodes = nodes;
  site.wan_to_compute = sim::wan_mbps(mbps);
  return site;
}

JobSetup multi_pass_setup(const repository::ChunkedDataset* ds, int passes_cap) {
  auto setup = pentium_setup(ds, 2, 4, /*wan_mbps_value=*/40.0);
  setup.config.enable_caching = true;
  setup.config.max_passes = passes_cap;
  return setup;
}

TEST(NonLocalCache, LocalWinsWhenCapacityAllows) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  SumKernelParams p;
  p.passes = 3;
  auto setup = multi_pass_setup(&ds, 10);
  setup.cache_site = nearby_cache_site();
  SumKernel kernel(p);
  const auto result = Runtime().run(setup, kernel);
  EXPECT_EQ(result.cache_mode, CacheMode::LocalDisk);
}

TEST(NonLocalCache, CapacityForcesNonLocalSite) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  SumKernelParams p;
  p.passes = 3;
  auto setup = multi_pass_setup(&ds, 10);
  setup.config.local_cache_capacity_bytes = 1.0;  // nothing fits locally
  setup.cache_site = nearby_cache_site();
  SumKernel kernel(p);
  const auto result = Runtime().run(setup, kernel);
  EXPECT_EQ(result.cache_mode, CacheMode::NonLocalSite);

  // Later passes are served from the cache: the repository is not read
  // again, but the cache pipe is.
  ASSERT_EQ(result.timing.passes.size(), 3u);
  EXPECT_FALSE(result.timing.passes[0].from_cache);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(result.timing.passes[i].from_cache);
    EXPECT_GT(result.timing.passes[i].timing.network, 0.0);
    EXPECT_LT(result.timing.passes[i].timing.network,
              result.timing.passes[0].timing.network);
  }
}

TEST(NonLocalCache, NoSiteMeansRefetch) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  SumKernelParams p;
  p.passes = 3;
  auto setup = multi_pass_setup(&ds, 10);
  setup.config.local_cache_capacity_bytes = 1.0;
  SumKernel kernel(p);
  const auto result = Runtime().run(setup, kernel);
  EXPECT_EQ(result.cache_mode, CacheMode::None);
  for (const auto& pass : result.timing.passes)
    EXPECT_FALSE(pass.from_cache);
}

TEST(NonLocalCache, ResultsIdenticalUnderEveryMode) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  SumKernelParams p;
  p.passes = 3;
  for (int mode = 0; mode < 3; ++mode) {
    auto setup = multi_pass_setup(&ds, 10);
    if (mode == 1) setup.config.local_cache_capacity_bytes = 1.0;
    if (mode >= 1) setup.cache_site = nearby_cache_site();
    if (mode == 2) setup.config.enable_caching = false;
    SumKernel kernel(p);
    const auto result = Runtime().run(setup, kernel);
    const auto& obj =
        dynamic_cast<const fgp::testing::SumObject&>(*result.result);
    EXPECT_DOUBLE_EQ(obj.sum, expected_sum(16, 64)) << "mode " << mode;
  }
}

TEST(NonLocalCache, BeatsRefetchingOverASlowRepositoryLink) {
  // Repository link is slow; the cache site sits on a fast pipe.
  const auto ds = make_sum_dataset(16, 64, 2000.0);
  SumKernelParams p;
  p.passes = 5;
  auto run_with = [&](bool use_site) {
    auto setup = multi_pass_setup(&ds, 10);
    setup.config.local_cache_capacity_bytes = 1.0;
    if (use_site) setup.cache_site = nearby_cache_site(2, 400.0);
    SumKernel kernel(p);
    return Runtime().run(setup, kernel).timing.total.total();
  };
  EXPECT_LT(run_with(true), run_with(false));
}

// ----------------------------------------------------------- tier exports

/// One way a 3-pass job's later passes can be served: the repository
/// again, the compute nodes' local disks, a non-local cache site, or the
/// repository after local caching was refused for lack of capacity.
struct TierCase {
  const char* name;
  bool caching;
  double local_capacity_bytes;
  bool site;
  CacheMode mode;
};

/// ctest prints GetParam() beside each test name; name the tier there.
void PrintTo(const TierCase& tier, std::ostream* os) { *os << tier.name; }

struct TierExport {
  CacheMode mode = CacheMode::None;
  std::string metrics_json;  ///< deterministic domain only
  std::string trace_json;    ///< virtual-time spans only
};

/// Runs the tier's 3-pass SumKernel job at 2-4 on the Pentium cluster
/// with both observability sinks attached. The virtual scale makes chunk
/// sizes inexact in binary, so the byte counters also pin the order in
/// which they are summed.
TierExport run_tier(const TierCase& tier) {
  const auto ds = make_sum_dataset(24, 64, 100.1);
  SumKernelParams p;
  p.passes = 3;
  SumKernel kernel(p);
  auto setup = pentium_setup(&ds, 2, 4);
  setup.config.enable_caching = tier.caching;
  setup.config.local_cache_capacity_bytes = tier.local_capacity_bytes;
  if (tier.site) setup.cache_site = nearby_cache_site(3);
  obs::TraceRecorder trace;
  obs::Registry metrics;
  setup.trace = &trace;
  setup.metrics = &metrics;
  const auto result = Runtime().run(setup, kernel);
  return {result.cache_mode, metrics.to_json(false),
          trace.to_chrome_json(false)};
}

std::string read_golden(const std::string& file) {
  std::ifstream in(std::string(FGP_TEST_GOLDEN_DIR) + "/" + file,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden " << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class TierExports : public ::testing::TestWithParam<TierCase> {};

// Every tier's WAN counters (wan.repo-compute / compute-cache /
// cache-compute), cache insertions, per-phase histograms and trace spans
// are pinned byte for byte against tests/golden/tier_<name>.*.json.
TEST_P(TierExports, MatchCommittedGoldens) {
  const TierCase& tier = GetParam();
  const TierExport out = run_tier(tier);
  EXPECT_EQ(out.mode, tier.mode);
  EXPECT_EQ(out.metrics_json,
            read_golden(std::string("tier_") + tier.name + ".metrics.json"));
  EXPECT_EQ(out.trace_json,
            read_golden(std::string("tier_") + tier.name + ".trace.json"));
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, TierExports,
    ::testing::Values(
        TierCase{"no_cache", false, 1e18, false, CacheMode::None},
        TierCase{"local_disk", true, 1e18, false, CacheMode::LocalDisk},
        TierCase{"cache_site", true, 1.0, true, CacheMode::NonLocalSite},
        TierCase{"refetch", true, 1.0, false, CacheMode::None}),
    [](const ::testing::TestParamInfo<TierCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------- overlap

TEST(Overlap, ElapsedIsMaxPlusSerialized) {
  const auto ds = make_sum_dataset(16, 64, 500.0);
  SumKernelParams p;
  p.merge_flops = 1e5;
  p.global_flops = 1e5;
  auto additive = pentium_setup(&ds, 2, 4);
  auto overlapped = pentium_setup(&ds, 2, 4);
  overlapped.config.overlap_phases = true;
  SumKernel k1(p), k2(p);
  const auto ra = Runtime().run(additive, k1);
  const auto ro = Runtime().run(overlapped, k2);

  // Component accounting is mode-independent.
  EXPECT_DOUBLE_EQ(ra.timing.total.disk, ro.timing.total.disk);
  EXPECT_DOUBLE_EQ(ra.timing.total.network, ro.timing.total.network);

  // Additive elapsed == component sum; overlapped elapsed == max + serial.
  EXPECT_DOUBLE_EQ(ra.timing.elapsed, ra.timing.total.total());
  const auto& t = ro.timing.passes[0].timing;
  EXPECT_DOUBLE_EQ(ro.timing.elapsed,
                   std::max({t.disk, t.network, t.compute_local}) + t.ro_comm +
                       t.global_red);
  EXPECT_LT(ro.timing.elapsed, ra.timing.elapsed);
}

TEST(Overlap, NeverSlowerThanAdditive) {
  const auto ds = make_sum_dataset(20, 64, 300.0);
  for (const auto& [n, c] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 4}, {4, 8}}) {
    auto setup = pentium_setup(&ds, n, c);
    setup.config.overlap_phases = true;
    SumKernel kernel;
    const auto result = Runtime().run(setup, kernel);
    EXPECT_LE(result.timing.elapsed, result.timing.total.total() + 1e-12);
  }
}

}  // namespace
}  // namespace fgp::freeride

namespace fgp::core {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::SumKernelParams;
using fgp::testing::make_sum_dataset;

CachePlannerInputs planner_inputs(const repository::ChunkedDataset& ds,
                                  double compute_per_pass) {
  CachePlannerInputs in;
  in.dataset_bytes = ds.total_virtual_bytes();
  in.chunks = ds.chunk_count();
  in.data_nodes = 2;
  in.compute_nodes = 4;
  in.data_cluster = sim::cluster_pentium_myrinet();
  in.compute_cluster = sim::cluster_pentium_myrinet();
  in.wan = sim::wan_mbps(40.0);
  in.compute_time_per_pass_s = compute_per_pass;
  return in;
}

TEST(CachePlanner, RejectsEmptyInputs) {
  CachePlannerInputs in;
  EXPECT_THROW(CachePlanner{in}, util::Error);
}

TEST(CachePlanner, LocalPlanRespectsCapacity) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  auto in = planner_inputs(ds, 1.0);
  in.local_cache_capacity_bytes = 1.0;
  const CachePlanner planner(in);
  EXPECT_FALSE(planner.plan_local_disk().has_value());
  in.local_cache_capacity_bytes = 1e18;
  EXPECT_TRUE(CachePlanner(in).plan_local_disk().has_value());
}

TEST(CachePlanner, SinglePassPrefersNoCache) {
  const auto ds = make_sum_dataset(16, 64, 100.0);
  const CachePlanner planner(planner_inputs(ds, 1.0));
  const auto ranked = planner.rank(1, {});
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked.front().mode, freeride::CacheMode::None);
}

TEST(CachePlanner, ManyPassesPreferLocalCaching) {
  const auto ds = make_sum_dataset(16, 64, 2000.0);
  const CachePlanner planner(planner_inputs(ds, 1.0));
  const auto ranked = planner.rank(10, {});
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked.front().mode, freeride::CacheMode::LocalDisk);
}

TEST(CachePlanner, MatchesSimulatedGroundTruthWithinTolerance) {
  const auto ds = make_sum_dataset(16, 64, 2000.0);
  const int passes = 5;

  // Measure compute-per-pass from a 2-4 run.
  SumKernelParams p;
  p.passes = passes;

  auto simulate_mode = [&](int which) {
    freeride::JobSetup setup;
    setup.dataset = &ds;
    setup.data_cluster = sim::cluster_pentium_myrinet();
    setup.compute_cluster = sim::cluster_pentium_myrinet();
    setup.wan = sim::wan_mbps(40.0);
    setup.config.data_nodes = 2;
    setup.config.compute_nodes = 4;
    setup.config.max_passes = 100;
    if (which == 1) setup.config.enable_caching = true;
    if (which == 2) {
      setup.config.enable_caching = true;
      setup.config.local_cache_capacity_bytes = 1.0;
      freeride::CacheSiteSetup site;
      site.cluster = sim::cluster_opteron_infiniband();
      site.nodes = 2;
      site.wan_to_compute = sim::wan_mbps(400.0);
      setup.cache_site = site;
    }
    SumKernel kernel(p);
    return freeride::Runtime().run(setup, kernel).timing.total.total();
  };

  const double actual_none = simulate_mode(0);
  const double actual_local = simulate_mode(1);
  const double actual_site = simulate_mode(2);

  auto in = planner_inputs(ds, (actual_none / passes) -
                                   (actual_none / passes) *
                                       0.0);  // placeholder, refined below
  // Compute-per-pass from the no-cache run: subtract movement analytically
  // is fragile; instead derive it from the planner's own no-cache estimate
  // being matched against the simulation.
  in.compute_time_per_pass_s = 0.0;
  const double movement_only =
      CachePlanner(in).plan_no_cache().total_s(passes);
  in.compute_time_per_pass_s =
      (actual_none - movement_only) / static_cast<double>(passes);
  const CachePlanner planner(in);

  freeride::CacheSiteSetup site;
  site.cluster = sim::cluster_opteron_infiniband();
  site.nodes = 2;
  site.wan_to_compute = sim::wan_mbps(400.0);

  EXPECT_LT(util::relative_error(actual_none,
                                 planner.plan_no_cache().total_s(passes)),
            0.02);
  EXPECT_LT(util::relative_error(
                actual_local, planner.plan_local_disk()->total_s(passes)),
            0.05);
  EXPECT_LT(util::relative_error(actual_site,
                                 planner.plan_site(site).total_s(passes)),
            0.05);

  // And the ranking matches the simulated ordering.
  const std::vector<freeride::CacheSiteSetup> sites{site};
  const auto ranked = planner.rank(passes, sites);
  std::vector<std::pair<double, freeride::CacheMode>> truth{
      {actual_none, freeride::CacheMode::None},
      {actual_local, freeride::CacheMode::LocalDisk},
      {actual_site, freeride::CacheMode::NonLocalSite}};
  std::sort(truth.begin(), truth.end());
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked.front().mode, truth.front().second);
}

}  // namespace
}  // namespace fgp::core
