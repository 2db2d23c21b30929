// Property sweeps over the prediction model: monotonicity in every knob,
// exact linearity in dataset size, symmetry/consistency properties, and
// straggler behaviour of the runtime. These pin down the algebra of the
// model independent of any particular workload.
#include <gtest/gtest.h>

#include <limits>

#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "helpers.h"
#include "util/stats.h"

namespace fgp::core {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::SumKernelParams;
using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;

/// A fixed realistic profile shared by the sweeps.
const Profile& shared_profile() {
  static const Profile profile = [] {
    static const auto ds = make_sum_dataset(32, 64, 500.0);
    auto setup = pentium_setup(&ds, 2, 4);
    SumKernelParams params;
    params.constant_ballast = 8192;
    params.merge_flops = 1e5;
    params.global_flops = 1e5;
    params.passes = 3;
    SumKernel kernel(params);
    return ProfileCollector::collect(setup, kernel);
  }();
  return profile;
}

PredictorOptions default_options() {
  PredictorOptions opts;
  opts.model = PredictionModel::GlobalReduction;
  opts.classes = {RoSizeClass::Constant,
                  GlobalReductionClass::LinearConstant};
  opts.ipc = measure_ipc(sim::cluster_pentium_myrinet());
  return opts;
}

class ModelSweep : public ::testing::TestWithParam<PredictionModel> {};

TEST_P(ModelSweep, DiskTimeMonotoneInDataNodes) {
  auto opts = default_options();
  opts.model = GetParam();
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig target = shared_profile().config;
  double prev_disk = 1e300, prev_net = 1e300;
  for (int n : {1, 2, 4, 8, 16}) {
    target.data_nodes = n;
    target.compute_nodes = 16;
    const auto p = predictor.predict(target);
    EXPECT_LT(p.disk, prev_disk);
    EXPECT_LT(p.network, prev_net);
    prev_disk = p.disk;
    prev_net = p.network;
  }
}

TEST_P(ModelSweep, NetworkTimeInverselyLinearInBandwidth) {
  auto opts = default_options();
  opts.model = GetParam();
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig target = shared_profile().config;
  target.bandwidth_Bps = shared_profile().config.bandwidth_Bps * 2.0;
  const auto doubled = predictor.predict(target);
  target.bandwidth_Bps = shared_profile().config.bandwidth_Bps;
  const auto base = predictor.predict(target);
  EXPECT_NEAR(doubled.network, base.network / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(doubled.disk, base.disk);     // bandwidth is network-only
  EXPECT_DOUBLE_EQ(doubled.compute, base.compute);
}

TEST_P(ModelSweep, TotalExactlyLinearInDatasetSize) {
  auto opts = default_options();
  opts.model = GetParam();
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig target = shared_profile().config;
  target.data_nodes = 4;
  target.compute_nodes = 8;
  const double t1 = predictor.predict(target).total();
  target.dataset_bytes *= 3.0;
  const double t3 = predictor.predict(target).total();
  if (GetParam() == PredictionModel::NoCommunication) {
    EXPECT_NEAR(t3, 3.0 * t1, 1e-9 * t1);
  } else {
    // The latency part of T̂_ro does not scale with s; everything else does.
    EXPECT_LE(t3, 3.0 * t1 + 1e-9);
    EXPECT_GT(t3, 2.5 * t1);
  }
}

TEST_P(ModelSweep, IdentityTargetReturnsProfileDiskAndNetwork) {
  auto opts = default_options();
  opts.model = GetParam();
  const Predictor predictor(shared_profile(), opts);
  const auto p = predictor.predict(shared_profile().config);
  EXPECT_NEAR(p.disk, shared_profile().t_disk, 1e-12);
  EXPECT_NEAR(p.network, shared_profile().t_network, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep,
                         ::testing::Values(
                             PredictionModel::NoCommunication,
                             PredictionModel::ReductionCommunication,
                             PredictionModel::GlobalReduction));

TEST(PredictorProperties, ComputeMonotoneInComputeNodesForNoComm) {
  auto opts = default_options();
  opts.model = PredictionModel::NoCommunication;
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig target = shared_profile().config;
  double prev = 1e300;
  for (int c : {4, 8, 16, 32}) {
    target.compute_nodes = c;
    const double t = predictor.predict(target).compute;
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(PredictorProperties, GlobalModelComputeCanGrowWithNodes) {
  // With the serialized terms modeled, piling on nodes eventually *costs*:
  // T̂_ro grows with (ĉ-1) while the parallel part shrinks.
  auto opts = default_options();
  opts.ipc.l = 0.05;  // expensive per-message latency
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig target = shared_profile().config;
  target.compute_nodes = 4;
  const double at4 = predictor.predict(target).compute;
  target.compute_nodes = 512;
  // Allow very large targets by raising data nodes too (M >= N holds).
  const double at512 = predictor.predict(target).compute;
  EXPECT_GT(at512, at4);
}

TEST(PredictorProperties, ChainedPredictionsCompose) {
  // Predicting A->B directly equals predicting A->B via the ratios of two
  // separate targets (the model is a pure product of scale factors), for
  // the no-communication model where no absolute terms intervene.
  auto opts = default_options();
  opts.model = PredictionModel::NoCommunication;
  const Predictor predictor(shared_profile(), opts);
  ProfileConfig mid = shared_profile().config;
  mid.data_nodes = 4;
  mid.compute_nodes = 8;
  mid.dataset_bytes *= 2.0;
  ProfileConfig far = mid;
  far.data_nodes = 8;
  far.compute_nodes = 16;
  far.dataset_bytes *= 2.0;
  const auto t_mid = predictor.predict(mid);
  const auto t_far = predictor.predict(far);
  // far = mid scaled by (s x2, n x2, c x2): disk x1, net x1, compute x1.
  EXPECT_NEAR(t_far.disk, t_mid.disk, 1e-12);
  EXPECT_NEAR(t_far.network, t_mid.network, 1e-12);
  EXPECT_NEAR(t_far.compute, t_mid.compute, 1e-12);
}

}  // namespace
}  // namespace fgp::core

namespace fgp::freeride {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;

TEST(Stragglers, ConfigValidation) {
  JobConfig cfg;
  cfg.compute_nodes = 4;
  cfg.straggler_count = 5;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg.straggler_count = 2;
  for (const double slowdown : {0.5, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    cfg.straggler_slowdown = slowdown;
    EXPECT_THROW(cfg.validate(), util::ConfigError) << slowdown;
  }
  cfg.straggler_slowdown = 2.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Stragglers, SlowNodeStretchesLocalPhaseOnly) {
  const auto ds = make_sum_dataset(32, 64, 100.0);
  Runtime runtime;
  auto clean = pentium_setup(&ds, 2, 4);
  auto slowed = pentium_setup(&ds, 2, 4);
  slowed.config.straggler_count = 1;
  slowed.config.straggler_slowdown = 3.0;
  SumKernel k1, k2;
  const auto rc = runtime.run(clean, k1).timing.total;
  const auto rs = runtime.run(slowed, k2).timing.total;
  EXPECT_NEAR(rs.compute_local, 3.0 * rc.compute_local,
              1e-9 * rc.compute_local);
  EXPECT_DOUBLE_EQ(rs.disk, rc.disk);
  EXPECT_DOUBLE_EQ(rs.network, rc.network);
}

TEST(Stragglers, MoreStragglersNoWorseThanOneAtSameSlowdown) {
  // The local phase is a max: one slow node already sets the pace.
  const auto ds = make_sum_dataset(32, 64, 100.0);
  Runtime runtime;
  auto one = pentium_setup(&ds, 2, 4);
  one.config.straggler_count = 1;
  one.config.straggler_slowdown = 2.0;
  auto all = pentium_setup(&ds, 2, 4);
  all.config.straggler_count = 4;
  all.config.straggler_slowdown = 2.0;
  SumKernel k1, k2;
  const double t_one = runtime.run(one, k1).timing.total.compute_local;
  const double t_all = runtime.run(all, k2).timing.total.compute_local;
  EXPECT_DOUBLE_EQ(t_one, t_all);
}

TEST(Stragglers, ResultsUnaffected) {
  const auto ds = make_sum_dataset(16, 32);
  auto setup = pentium_setup(&ds, 1, 4);
  setup.config.straggler_count = 2;
  setup.config.straggler_slowdown = 5.0;
  SumKernel kernel;
  Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const fgp::testing::SumObject&>(*result.result);
  EXPECT_DOUBLE_EQ(obj.sum, fgp::testing::expected_sum(16, 32));
}

}  // namespace
}  // namespace fgp::freeride
