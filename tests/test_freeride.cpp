// Tests for the FREERIDE-G middleware runtime: configuration rules, phase
// accounting, caching, determinism, scaling behaviour, and failure
// injection — all with the controllable SumKernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "freeride/config.h"
#include "freeride/runtime.h"
#include "helpers.h"
#include "repository/payload.h"
#include "util/thread_pool.h"

namespace fgp::freeride {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::SumKernelParams;
using fgp::testing::expected_sum;
using fgp::testing::ideal_setup;
using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;

// ----------------------------------------------------------------- config

TEST(JobConfig, ValidConfigPasses) {
  JobConfig cfg;
  cfg.data_nodes = 2;
  cfg.compute_nodes = 4;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(JobConfig, RejectsComputeBelowData) {
  // The paper's M >= N rule (§2.1).
  JobConfig cfg;
  cfg.data_nodes = 8;
  cfg.compute_nodes = 4;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}

TEST(JobConfig, RejectsNonPositiveCounts) {
  JobConfig cfg;
  cfg.data_nodes = 0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg.data_nodes = 1;
  cfg.compute_nodes = -2;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg.compute_nodes = 1;
  cfg.max_passes = 0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}

TEST(JobConfig, RejectsNanOrNegativeCacheCapacity) {
  // A NaN capacity would silently turn local caching off.
  JobConfig cfg;
  for (const double capacity :
       {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    cfg.local_cache_capacity_bytes = capacity;
    EXPECT_THROW(cfg.validate(), util::ConfigError) << capacity;
  }
  cfg.local_cache_capacity_bytes = 0.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.local_cache_capacity_bytes = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------- runtime

TEST(Runtime, ComputesTheRightAnswer) {
  const auto ds = make_sum_dataset(16, 100);
  auto setup = ideal_setup(&ds, 2, 4);
  SumKernel kernel;
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const fgp::testing::SumObject&>(*result.result);
  EXPECT_DOUBLE_EQ(obj.sum, expected_sum(16, 100));
  EXPECT_EQ(obj.count, 1600u);
  EXPECT_EQ(result.passes, 1);
}

TEST(Runtime, ResultInvariantAcrossConfigurations) {
  const auto ds = make_sum_dataset(24, 50);
  for (const auto& [n, c] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 5}, {2, 2}, {3, 8}, {8, 16}}) {
    auto setup = ideal_setup(&ds, n, c);
    SumKernel kernel;
    Runtime runtime;
    const auto result = runtime.run(setup, kernel);
    const auto& obj =
        dynamic_cast<const fgp::testing::SumObject&>(*result.result);
    EXPECT_DOUBLE_EQ(obj.sum, expected_sum(24, 50)) << n << "-" << c;
  }
}

TEST(Runtime, RejectsInvalidSetups) {
  const auto ds = make_sum_dataset(4, 10);
  Runtime runtime;
  SumKernel kernel;
  {
    auto setup = ideal_setup(&ds, 4, 2);  // M < N
    EXPECT_THROW(runtime.run(setup, kernel), util::ConfigError);
  }
  {
    auto setup = ideal_setup(&ds, 1, 1);
    setup.dataset = nullptr;
    EXPECT_THROW(runtime.run(setup, kernel), util::Error);
  }
  {
    auto setup = ideal_setup(&ds, 1, 1);
    setup.config.compute_nodes = setup.compute_cluster.max_nodes + 1;
    setup.config.data_nodes = 1;
    EXPECT_THROW(runtime.run(setup, kernel), util::Error);
  }
}

TEST(Runtime, RejectsNanOrNegativeSpecFieldsTyped) {
  // A NaN or negative spec field must not fold into the phase accounting
  // (std::max drops NaN): the run fails with a typed error instead.
  const auto ds = make_sum_dataset(16, 100);
  for (const double seek_s : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    auto setup = pentium_setup(&ds, 2, 4);
    setup.data_cluster.machine.disk.seek_s = seek_s;
    SumKernel kernel;
    EXPECT_THROW(Runtime().run(setup, kernel), util::Error) << seek_s;
  }
}

TEST(Runtime, TimingIsDeterministic) {
  const auto ds = make_sum_dataset(20, 64);
  auto run_once = [&ds] {
    auto setup = pentium_setup(&ds, 2, 4);
    SumKernel kernel;
    Runtime runtime;
    return runtime.run(setup, kernel).timing.total.total();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Runtime, BreakdownComponentsAllPositiveOnRealCluster) {
  const auto ds = make_sum_dataset(16, 64);
  auto setup = pentium_setup(&ds, 2, 4);
  SumKernelParams p;
  p.merge_flops = 100.0;
  p.global_flops = 100.0;
  SumKernel kernel(p);
  Runtime runtime;
  const auto t = runtime.run(setup, kernel).timing.total;
  EXPECT_GT(t.disk, 0.0);
  EXPECT_GT(t.network, 0.0);
  EXPECT_GT(t.compute_local, 0.0);
  EXPECT_GT(t.ro_comm, 0.0);
  EXPECT_GT(t.global_red, 0.0);
  EXPECT_DOUBLE_EQ(t.total(), t.disk + t.network + t.compute());
}

TEST(Runtime, SingleComputeNodeHasNoObjectCommunication) {
  const auto ds = make_sum_dataset(8, 32);
  auto setup = pentium_setup(&ds, 1, 1);
  SumKernel kernel;
  Runtime runtime;
  const auto t = runtime.run(setup, kernel).timing.total;
  EXPECT_DOUBLE_EQ(t.ro_comm, 0.0);
}

TEST(Runtime, MorePassesAccumulateTime) {
  const auto ds = make_sum_dataset(8, 32);
  SumKernelParams one_pass, three_pass;
  three_pass.passes = 3;
  Runtime runtime;
  auto setup = pentium_setup(&ds, 1, 2);
  SumKernel k1(one_pass), k3(three_pass);
  const auto r1 = runtime.run(setup, k1);
  const auto r3 = runtime.run(setup, k3);
  EXPECT_EQ(r1.passes, 1);
  EXPECT_EQ(r3.passes, 3);
  EXPECT_NEAR(r3.timing.total.total(), 3.0 * r1.timing.total.total(), 1e-9);
  EXPECT_EQ(r3.timing.passes.size(), 3u);
}

TEST(Runtime, MaxPassesCapsIterativeKernels) {
  const auto ds = make_sum_dataset(4, 16);
  SumKernelParams p;
  p.passes = 1000;
  SumKernel kernel(p);
  auto setup = ideal_setup(&ds, 1, 1);
  setup.config.max_passes = 5;
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  EXPECT_EQ(result.passes, 5);
}

TEST(Runtime, ComputeTimeShrinksWithMoreNodes) {
  const auto ds = make_sum_dataset(32, 256);
  Runtime runtime;
  double prev = 1e300;
  for (int c : {1, 2, 4, 8}) {
    auto setup = pentium_setup(&ds, 1, c);
    SumKernel kernel;
    const auto t = runtime.run(setup, kernel).timing.total;
    EXPECT_LT(t.compute_local, prev);
    prev = t.compute_local;
  }
}

TEST(Runtime, DiskTimeShrinksWithMoreDataNodes) {
  const auto ds = make_sum_dataset(32, 256);
  Runtime runtime;
  double prev = 1e300;
  for (int n : {1, 2, 4}) {
    auto setup = pentium_setup(&ds, n, 8);
    SumKernel kernel;
    const auto t = runtime.run(setup, kernel).timing.total;
    EXPECT_LT(t.disk, prev);
    prev = t.disk;
  }
}

TEST(Runtime, BackplaneMakesRetrievalSubLinear) {
  // Large virtual scale so byte transfer (not per-chunk seeks) dominates,
  // and an aggressive backplane so the shared-I/O cap clearly binds.
  const auto ds = make_sum_dataset(64, 256, 20000.0);
  Runtime runtime;
  auto time_at = [&](int n) {
    auto setup = pentium_setup(&ds, n, 16);
    setup.data_cluster.storage_backplane_Bps = 120e6;
    SumKernel kernel;
    return runtime.run(setup, kernel).timing.total.disk;
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  // Faster than 1 node, but clearly slower than the ideal t1/8.
  EXPECT_LT(t8, t1);
  EXPECT_GT(t8, t1 / 8.0 * 1.1);
}

TEST(Runtime, NetworkTimeScalesWithBandwidth) {
  // Large virtual scale so bytes (not per-message latency) dominate.
  const auto ds = make_sum_dataset(16, 128, 20000.0);
  Runtime runtime;
  auto setup_fast = pentium_setup(&ds, 1, 2, 100.0);
  auto setup_slow = pentium_setup(&ds, 1, 2, 25.0);
  SumKernel k1, k2;
  const double fast = runtime.run(setup_fast, k1).timing.total.network;
  const double slow = runtime.run(setup_slow, k2).timing.total.network;
  EXPECT_NEAR(slow / fast, 4.0, 0.2);
}

TEST(Runtime, VirtualScaleMultipliesTimeNotResults) {
  Runtime runtime;
  const auto small = make_sum_dataset(8, 64, 1.0);
  const auto scaled = make_sum_dataset(8, 64, 10000.0);
  auto s1 = pentium_setup(&small, 1, 2);
  auto s2 = pentium_setup(&scaled, 1, 2);
  SumKernel k1, k2;
  const auto r1 = runtime.run(s1, k1);
  const auto r2 = runtime.run(s2, k2);
  const auto& o1 = dynamic_cast<const fgp::testing::SumObject&>(*r1.result);
  const auto& o2 = dynamic_cast<const fgp::testing::SumObject&>(*r2.result);
  EXPECT_DOUBLE_EQ(o1.sum, o2.sum);  // same real data
  // Disk time has a fixed per-chunk seek component, so the ratio is large
  // but well below the raw scale; compute work scales with the full factor.
  EXPECT_GT(r2.timing.total.disk, 20.0 * r1.timing.total.disk);
  EXPECT_GT(r2.timing.total.compute_local,
            50.0 * r1.timing.total.compute_local);
}

TEST(Runtime, RecordsMaxReductionObjectBytes) {
  const auto ds = make_sum_dataset(8, 32);
  SumKernelParams p;
  p.constant_ballast = 4096;
  auto setup = pentium_setup(&ds, 1, 4);
  SumKernel kernel(p);
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  EXPECT_GT(result.timing.max_object_bytes, 4096.0);
}

TEST(Runtime, ObjectScaleChargesLinearKernels) {
  // The same ballast is charged at the dataset's virtual scale when the
  // kernel declares its object linear with data.
  const auto ds = make_sum_dataset(8, 32, 50.0);
  SumKernelParams constant, linear;
  constant.ballast_per_element = 1.0;
  linear.ballast_per_element = 1.0;
  linear.scales_with_data = true;
  Runtime runtime;
  auto s1 = pentium_setup(&ds, 1, 2);
  SumKernel kc(constant), kl(linear);
  const auto rc = runtime.run(s1, kc);
  const auto rl = runtime.run(s1, kl);
  EXPECT_NEAR(rl.timing.max_object_bytes / rc.timing.max_object_bytes, 50.0,
              1.0);
  EXPECT_GT(rl.timing.total.ro_comm, rc.timing.total.ro_comm);
}

// ---------------------------------------------------------------- caching

TEST(Runtime, CachingEliminatesNetworkAfterFirstPass) {
  const auto ds = make_sum_dataset(12, 64);
  SumKernelParams p;
  p.passes = 3;
  auto setup = pentium_setup(&ds, 2, 4);
  setup.config.enable_caching = true;
  SumKernel kernel(p);
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  ASSERT_EQ(result.timing.passes.size(), 3u);
  EXPECT_FALSE(result.timing.passes[0].from_cache);
  EXPECT_GT(result.timing.passes[0].timing.network, 0.0);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(result.timing.passes[i].from_cache);
    EXPECT_DOUBLE_EQ(result.timing.passes[i].timing.network, 0.0);
    EXPECT_GT(result.timing.passes[i].timing.disk, 0.0);  // local reads
  }
}

TEST(Runtime, CachingBeatsRefetchingForMultiPassJobs) {
  const auto ds = make_sum_dataset(12, 64);
  SumKernelParams p;
  p.passes = 4;
  Runtime runtime;
  auto cached = pentium_setup(&ds, 2, 4);
  cached.config.enable_caching = true;
  auto uncached = pentium_setup(&ds, 2, 4);
  SumKernel k1(p), k2(p);
  const double with_cache = runtime.run(cached, k1).timing.total.total();
  const double without = runtime.run(uncached, k2).timing.total.total();
  EXPECT_LT(with_cache, without);
}

TEST(Runtime, FirstCachedPassChargesTheCacheWrite) {
  // Populating the local cache writes every chunk to the compute nodes'
  // disks, so the first pass's disk phase exceeds a plain retrieval.
  const auto ds = make_sum_dataset(12, 64);
  SumKernelParams p;
  p.passes = 2;
  Runtime runtime;
  auto cached = pentium_setup(&ds, 1, 2);
  cached.config.enable_caching = true;
  const auto uncached = pentium_setup(&ds, 1, 2);
  SumKernel k1(p), k2(p);
  const auto with_cache = runtime.run(cached, k1);
  const auto without = runtime.run(uncached, k2);
  ASSERT_EQ(with_cache.cache_mode, CacheMode::LocalDisk);
  EXPECT_GT(with_cache.timing.passes[0].timing.disk,
            without.timing.passes[0].timing.disk);
}

TEST(Runtime, CachedPassReadsTheWholeShare) {
  // Eight chunks that all carry id 0: a cached pass reads back each
  // compute node's whole 4-chunk share, exactly what pass 0 wrote.
  repository::ChunkedDataset ds(repository::DatasetMeta{"same-id", "f64", 0});
  for (int c = 0; c < 8; ++c)
    ds.add_chunk(repository::make_chunk<double>(
        0, std::vector<double>(64, 1.0), 10000.0));
  SumKernelParams p;
  p.passes = 2;
  SumKernel kernel(p);
  auto setup = pentium_setup(&ds, 1, 2);
  setup.config.enable_caching = true;
  const auto result = Runtime().run(setup, kernel);
  ASSERT_EQ(result.cache_mode, CacheMode::LocalDisk);
  ASSERT_EQ(result.timing.passes.size(), 2u);
  ASSERT_TRUE(result.timing.passes[1].from_cache);
  const sim::DiskSpec& disk = setup.compute_cluster.machine.disk;
  const double share_bytes = 4.0 * ds.chunk(0).virtual_bytes();
  EXPECT_DOUBLE_EQ(result.timing.passes[1].timing.disk,
                   disk.access_time(share_bytes, 4.0,
                                    disk.effective_bandwidth()));
}

// ------------------------------------------------------- failure injection

TEST(Runtime, CorruptedResidentChunkFailsTheRun) {
  // Each chunk borrows a slab this test still owns, so a byte can be
  // flipped after the chunk took its checksum. The first pass's checksum
  // sweep must name the chunk, serial or pooled.
  repository::ChunkedDataset ds(repository::DatasetMeta{"bad", "f64", 0});
  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> slabs;
  for (std::size_t c = 0; c < 8; ++c) {
    auto slab =
        std::make_shared<std::vector<std::uint8_t>>(64 * sizeof(double));
    ds.add_chunk(repository::Chunk(
        c, repository::PayloadBuffer::from_view(slab, slab->data(),
                                                slab->size()),
        1.0));
    slabs.push_back(std::move(slab));
  }
  (*slabs[5])[100] ^= 0x01;

  for (const std::size_t threads : {1, 2, 8}) {
    const auto setup = pentium_setup(&ds, 2, 4);
    SumKernel kernel;
    util::ThreadPool pool(threads);
    try {
      (void)Runtime(&pool).run(setup, kernel);
      ADD_FAILURE() << "run succeeded; threads=" << threads;
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("chunk 5 failed checksum"),
                std::string::npos)
          << e.what() << " (threads=" << threads << ")";
    }
  }
}

TEST(Runtime, EmptyComputeNodesAreHarmless) {
  // More compute nodes than chunks: some nodes idle, result unchanged.
  const auto ds = make_sum_dataset(3, 16);
  auto setup = ideal_setup(&ds, 1, 8);
  SumKernel kernel;
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const fgp::testing::SumObject&>(*result.result);
  EXPECT_DOUBLE_EQ(obj.sum, expected_sum(3, 16));
}

// ------------------------------------------------ parameterized properties

class RuntimeConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RuntimeConfigSweep, AnswerAndPhaseAccountingHold) {
  const auto [n, c] = GetParam();
  const auto ds = make_sum_dataset(30, 40);
  auto setup = pentium_setup(&ds, n, c);
  SumKernel kernel;
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const fgp::testing::SumObject&>(*result.result);
  EXPECT_DOUBLE_EQ(obj.sum, expected_sum(30, 40));
  const auto& t = result.timing.total;
  EXPECT_DOUBLE_EQ(t.compute(), t.compute_local + t.ro_comm + t.global_red);
  EXPECT_GE(t.disk, 0.0);
  EXPECT_GE(t.network, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RuntimeConfigSweep,
    fgp::testing::valid_configs({1, 2, 4, 8}, {1, 2, 4, 8, 16}));

}  // namespace
}  // namespace fgp::freeride
