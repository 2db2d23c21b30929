// Tests for the FREERIDE-G middleware runtime: configuration rules, phase
// accounting, caching, determinism, scaling behaviour, and failure
// injection — all with the controllable SumKernel.
#include <gtest/gtest.h>

#include <limits>

#include "freeride/cache.h"
#include "freeride/config.h"
#include "freeride/runtime.h"
#include "helpers.h"

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

// ------------------------------------------------------------------ cache

/// A one-byte chunk whose virtual size is exactly `virtual_bytes`.
repository::Chunk cache_chunk(repository::ChunkId id, double virtual_bytes) {
  return repository::Chunk(id, std::vector<std::uint8_t>{0xab}, virtual_bytes);
}

TEST(NodeCache, TracksChunksAndBytes) {
  NodeCache cache;
  cache.insert(cache_chunk(1, 100.0));
  cache.insert(cache_chunk(2, 50.0));
  cache.insert(cache_chunk(1, 100.0));  // duplicate ignored
  EXPECT_EQ(cache.chunk_count(), 2u);
  EXPECT_DOUBLE_EQ(cache.virtual_bytes(), 150.0);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(3));
  cache.clear();
  EXPECT_EQ(cache.chunk_count(), 0u);
}

TEST(NodeCache, HoldsSharedPayloadViewsNotCopies) {
  // Caching a chunk stores a handle onto the dataset's immutable slab
  // (DESIGN.md §13): the cached view aliases the source payload bytes.
  const auto src = repository::make_chunk<double>(7, {1, 2, 3}, 2.0);
  NodeCache cache;
  cache.insert(src);
  ASSERT_EQ(cache.chunk_count(), 1u);
  EXPECT_EQ(cache.chunks().front().payload().data(), src.payload().data());
  EXPECT_EQ(cache.chunks().front().payload_buffer().get(),
            src.payload_buffer().get());
}

TEST(CacheSet, PerNodeIsolation) {
  CacheSet set(3);
  set.node(0).insert(cache_chunk(1, 10.0));
  EXPECT_FALSE(set.node(1).contains(1));
  EXPECT_THROW(set.node(3), util::Error);
  EXPECT_FALSE(set.warm());
  set.mark_warm();
  EXPECT_TRUE(set.warm());
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

TEST(Runtime, CacheWriteChargeIsOptional) {
  const auto ds = make_sum_dataset(12, 64);
  SumKernelParams p;
  p.passes = 2;
  Runtime runtime;
  auto charged = pentium_setup(&ds, 1, 2);
  charged.config.enable_caching = true;
  charged.config.charge_cache_write = true;
  auto free_write = pentium_setup(&ds, 1, 2);
  free_write.config.enable_caching = true;
  free_write.config.charge_cache_write = false;
  SumKernel k1(p), k2(p);
  const double t_charged = runtime.run(charged, k1).timing.total.disk;
  const double t_free = runtime.run(free_write, k2).timing.total.disk;
  EXPECT_GT(t_charged, t_free);
}

// ------------------------------------------------------- failure injection

TEST(Runtime, CorruptedChunkDetectedWhenVerifying) {
  // Build a dataset whose chunk payload is corrupted after construction.
  repository::DatasetMeta meta{"bad", "f64", 0};
  repository::ChunkedDataset ds(meta);
  std::vector<double> values(32, 1.0);
  util::ByteWriter w;
  repository::make_chunk<double>(0, values).serialize(w);
  auto bytes = w.take();
  // Corrupt the payload region but keep the stored checksum: deserialize
  // catches it. To inject the bad chunk into a dataset we bypass
  // deserialize and flip bits in a reconstructed chunk's buffer is not
  // possible through the public API — so instead verify detection at the
  // deserialization boundary, which is where the data server receives
  // chunks from disk.
  bytes.back() ^= 0x01;
  util::ByteReader r(bytes);
  EXPECT_THROW(repository::Chunk::deserialize(r), util::SerializationError);
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
