// Tests for the prediction framework: profile collection, the class
// taxonomy and its auto-detection, the IPC probe, the three predictor
// models (including exactness under a frictionless cluster — the key
// analytical property), and heterogeneous scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/classes.h"
#include "core/hetero.h"
#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "helpers.h"
#include "util/stats.h"

namespace fgp::core {
namespace {

using fgp::testing::SumKernel;
using fgp::testing::SumKernelParams;
using fgp::testing::ideal_setup;
using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;

// ---------------------------------------------------------------- profile

TEST(Profile, CollectorRecordsConfigurationAndBreakdown) {
  const auto ds = make_sum_dataset(16, 64, 10.0);
  auto setup = pentium_setup(&ds, 2, 4);
  SumKernel kernel;
  const Profile p = ProfileCollector::collect(setup, kernel);
  EXPECT_EQ(p.app, "sum");
  EXPECT_EQ(p.config.data_nodes, 2);
  EXPECT_EQ(p.config.compute_nodes, 4);
  EXPECT_DOUBLE_EQ(p.config.dataset_bytes, ds.total_virtual_bytes());
  EXPECT_DOUBLE_EQ(p.config.bandwidth_Bps, setup.wan.per_link_Bps);
  EXPECT_EQ(p.config.compute_cluster, "pentium-myrinet");
  EXPECT_GT(p.t_disk, 0.0);
  EXPECT_GT(p.t_network, 0.0);
  EXPECT_GT(p.t_compute, 0.0);
  EXPECT_GE(p.t_compute, p.t_ro + p.t_g);
  EXPECT_GT(p.object_bytes, 0.0);
  EXPECT_EQ(p.passes, 1);
  EXPECT_DOUBLE_EQ(p.total(), p.t_disk + p.t_network + p.t_compute);
}

// ---------------------------------------------------------------- classes

Profile synthetic_profile(int c, double s, double r, double tg) {
  Profile p;
  p.app = "synthetic";
  p.config.data_nodes = 1;
  p.config.compute_nodes = c;
  p.config.dataset_bytes = s;
  p.config.bandwidth_Bps = 1e6;
  p.object_bytes = r;
  p.t_g = tg;
  p.t_disk = p.t_network = 1.0;
  p.t_compute = 10.0 + tg;
  return p;
}

TEST(Classes, ConstantObjectEstimateIgnoresTarget) {
  const Profile p = synthetic_profile(2, 100.0, 64.0, 1.0);
  ProfileConfig target;
  target.data_nodes = 1;
  target.compute_nodes = 16;
  target.dataset_bytes = 400.0;
  target.bandwidth_Bps = 1e6;
  EXPECT_DOUBLE_EQ(estimate_object_bytes(RoSizeClass::Constant, p, target),
                   64.0);
}

TEST(Classes, LinearObjectEstimateTracksDataPerNode) {
  const Profile p = synthetic_profile(2, 100.0, 64.0, 1.0);
  ProfileConfig target;
  target.compute_nodes = 8;
  target.dataset_bytes = 400.0;
  // r̂ = 64 * (400/100) * (2/8) = 64.
  EXPECT_DOUBLE_EQ(
      estimate_object_bytes(RoSizeClass::LinearWithData, p, target), 64.0);
  target.compute_nodes = 2;
  EXPECT_DOUBLE_EQ(
      estimate_object_bytes(RoSizeClass::LinearWithData, p, target), 256.0);
}

TEST(Classes, GlobalTimeEstimators) {
  const Profile p = synthetic_profile(2, 100.0, 64.0, 3.0);
  ProfileConfig target;
  target.compute_nodes = 8;
  target.dataset_bytes = 200.0;
  EXPECT_DOUBLE_EQ(
      estimate_global_time(GlobalReductionClass::LinearConstant, p, target),
      12.0);  // 3 * 8/2
  EXPECT_DOUBLE_EQ(
      estimate_global_time(GlobalReductionClass::ConstantLinear, p, target),
      6.0);  // 3 * 200/100
}

TEST(Classes, DetectConstantObjectLinearConstantGlobal) {
  // r constant across node counts; t_g grows with node count.
  const std::vector<Profile> profiles{synthetic_profile(1, 100, 64, 1.0),
                                      synthetic_profile(4, 100, 64, 4.0),
                                      synthetic_profile(8, 100, 64, 8.0)};
  const auto cls = detect_classes(profiles);
  EXPECT_EQ(cls.ro, RoSizeClass::Constant);
  EXPECT_EQ(cls.global, GlobalReductionClass::LinearConstant);
}

TEST(Classes, DetectLinearObjectConstantLinearGlobal) {
  // r halves when node count doubles; grows with data; t_g tracks data.
  const std::vector<Profile> profiles{
      synthetic_profile(1, 100, 1000, 2.0), synthetic_profile(4, 100, 250, 2.0),
      synthetic_profile(1, 400, 4000, 8.0)};
  const auto cls = detect_classes(profiles);
  EXPECT_EQ(cls.ro, RoSizeClass::LinearWithData);
  EXPECT_EQ(cls.global, GlobalReductionClass::ConstantLinear);
}

TEST(Classes, DetectionRequiresVariation) {
  const std::vector<Profile> same{synthetic_profile(2, 100, 64, 1.0),
                                  synthetic_profile(2, 100, 64, 1.0)};
  EXPECT_THROW(detect_classes(same), util::Error);
  const std::vector<Profile> one{synthetic_profile(2, 100, 64, 1.0)};
  EXPECT_THROW(detect_classes(one), util::Error);
}

TEST(Classes, DetectionFromRealRuns) {
  // Constant-object kernel profiles at two node counts.
  const auto ds = make_sum_dataset(16, 64);
  std::vector<Profile> profiles;
  for (int c : {2, 8}) {
    auto setup = pentium_setup(&ds, 1, c);
    SumKernelParams params;
    params.constant_ballast = 2048;
    params.merge_flops = 500.0;
    params.global_flops = 500.0;
    SumKernel kernel(params);
    profiles.push_back(ProfileCollector::collect(setup, kernel));
  }
  EXPECT_EQ(detect_classes(profiles).ro, RoSizeClass::Constant);

  // Linear-object kernel.
  profiles.clear();
  for (int c : {2, 8}) {
    auto setup = pentium_setup(&ds, 1, c);
    SumKernelParams params;
    params.ballast_per_element = 4.0;
    params.scales_with_data = true;
    SumKernel kernel(params);
    profiles.push_back(ProfileCollector::collect(setup, kernel));
  }
  EXPECT_EQ(detect_classes(profiles).ro, RoSizeClass::LinearWithData);
}

TEST(Classes, ToStringsAreStable) {
  EXPECT_STREQ(to_string(RoSizeClass::Constant), "constant");
  EXPECT_STREQ(to_string(GlobalReductionClass::ConstantLinear),
               "constant-linear");
}

// -------------------------------------------------------------- ipc probe

TEST(IpcProbe, RecoversInterconnectParametersExactly) {
  const auto cluster = sim::cluster_pentium_myrinet();
  const IpcParams p = measure_ipc(cluster);
  EXPECT_NEAR(p.w, 1.0 / cluster.interconnect.bandwidth_Bps, 1e-18);
  EXPECT_NEAR(p.l, cluster.interconnect.latency_s, 1e-12);
}

TEST(IpcProbe, IdealClusterHasZeroLatency) {
  const IpcParams p = measure_ipc(sim::cluster_ideal());
  EXPECT_NEAR(p.l, 0.0, 1e-15);
}

// -------------------------------------------------------------- predictor

PredictorOptions global_options(const sim::ClusterSpec& target_cluster,
                                AppClasses classes = {}) {
  PredictorOptions opts;
  opts.model = PredictionModel::GlobalReduction;
  opts.classes = classes;
  opts.ipc = measure_ipc(target_cluster);
  return opts;
}

TEST(Predictor, ValidatesProfileAndTarget) {
  Profile p = synthetic_profile(2, 100.0, 64.0, 1.0);
  PredictorOptions opts;
  opts.ipc = {1e-8, 1e-5};
  const Predictor predictor(p, opts);
  ProfileConfig bad;
  bad.data_nodes = 4;
  bad.compute_nodes = 2;  // violates M >= N
  bad.dataset_bytes = 100.0;
  bad.bandwidth_Bps = 1e6;
  EXPECT_THROW(predictor.predict(bad), util::Error);

  Profile empty = p;
  empty.config.dataset_bytes = 0.0;
  EXPECT_THROW(Predictor(empty, opts), util::Error);
}

TEST(Predictor, IdentityPredictionReproducesProfile) {
  // Predicting the profile's own configuration must return the profile's
  // own component times under every model (the scale factors are all 1 and
  // T̂_ro/T̂_g reduce to the measured values).
  const auto ds = make_sum_dataset(16, 64);
  auto setup = pentium_setup(&ds, 2, 4);
  SumKernelParams params;
  params.constant_ballast = 8192;
  params.merge_flops = 2000.0;
  params.global_flops = 2000.0;
  SumKernel kernel(params);
  const Profile p = ProfileCollector::collect(setup, kernel);

  for (const auto model :
       {PredictionModel::NoCommunication,
        PredictionModel::ReductionCommunication,
        PredictionModel::GlobalReduction}) {
    auto opts = global_options(setup.compute_cluster,
                               {RoSizeClass::Constant,
                                GlobalReductionClass::LinearConstant});
    opts.model = model;
    const auto predicted = Predictor(p, opts).predict(p.config);
    EXPECT_NEAR(predicted.disk, p.t_disk, 1e-9);
    EXPECT_NEAR(predicted.network, p.t_network, 1e-9);
    if (model == PredictionModel::NoCommunication) {
      EXPECT_NEAR(predicted.compute, p.t_compute, 1e-9);
    }
  }
}

/// Runs the SumKernel on a frictionless grid and checks that the
/// global-reduction model predicts *exactly* — the analytical property the
/// paper's model has by construction on ideal hardware.
class ExactnessSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExactnessSweep, GlobalReductionModelExactOnIdealGrid) {
  const auto [n_hat, c_hat] = GetParam();

  const auto ds = make_sum_dataset(16, 64);
  SumKernelParams params;
  params.constant_ballast = 4096;
  params.merge_flops = 1000.0;
  params.global_flops = 1000.0;
  params.passes = 2;

  // Profile at 1-2 so the gather path is exercised in the profile.
  auto profile_setup = ideal_setup(&ds, 1, 2);
  profile_setup.wan = sim::wan_ideal(50.0);
  SumKernel profile_kernel(params);
  const Profile p = ProfileCollector::collect(profile_setup, profile_kernel);

  auto opts = global_options(profile_setup.compute_cluster,
                             {RoSizeClass::Constant,
                              GlobalReductionClass::LinearConstant});
  const Predictor predictor(p, opts);

  auto target_setup = ideal_setup(&ds, n_hat, c_hat);
  target_setup.wan = sim::wan_ideal(50.0);
  SumKernel target_kernel(params);
  const auto actual = freeride::Runtime().run(target_setup, target_kernel);

  ProfileConfig target = p.config;
  target.data_nodes = n_hat;
  target.compute_nodes = c_hat;
  const auto predicted = predictor.predict(target);

  EXPECT_NEAR(predicted.disk, actual.timing.total.disk,
              1e-9 * std::max(1.0, actual.timing.total.disk));
  EXPECT_NEAR(predicted.network, actual.timing.total.network,
              1e-9 * std::max(1.0, actual.timing.total.network));
  EXPECT_NEAR(predicted.compute, actual.timing.total.compute(),
              1e-9 * std::max(1.0, actual.timing.total.compute()));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExactnessSweep,
    fgp::testing::valid_configs({1, 2, 4, 8}, {1, 2, 4, 8, 16}));

TEST(Predictor, ExactForLinearObjectClassOnIdealGrid) {
  // Large ballast so the constant serialization header is negligible: the
  // linear-size estimate r̂ = r·(ŝ/s)·(c/ĉ) is exact only up to that
  // constant, so this property is "exact to within the header overhead".
  const auto ds = make_sum_dataset(16, 64);
  SumKernelParams params;
  params.ballast_per_element = 64.0;
  params.scales_with_data = true;

  auto profile_setup = ideal_setup(&ds, 1, 2);
  profile_setup.wan = sim::wan_ideal(50.0);
  SumKernel profile_kernel(params);
  const Profile p = ProfileCollector::collect(profile_setup, profile_kernel);

  auto opts = global_options(profile_setup.compute_cluster,
                             {RoSizeClass::LinearWithData,
                              GlobalReductionClass::ConstantLinear});
  const Predictor predictor(p, opts);

  for (const int c_hat : {4, 8, 16}) {
    auto target_setup = ideal_setup(&ds, 1, c_hat);
    target_setup.wan = sim::wan_ideal(50.0);
    SumKernel target_kernel(params);
    const auto actual = freeride::Runtime().run(target_setup, target_kernel);
    ProfileConfig target = p.config;
    target.compute_nodes = c_hat;
    const auto predicted = predictor.predict(target);
    EXPECT_NEAR(predicted.compute, actual.timing.total.compute(),
                0.01 * actual.timing.total.compute())
        << "c=" << c_hat;
  }
}

TEST(Predictor, ExactForDatasetScalingOnIdealGrid) {
  const auto small = make_sum_dataset(16, 64);
  const auto big = make_sum_dataset(16, 256);
  SumKernelParams params;
  params.constant_ballast = 1024;
  auto profile_setup = ideal_setup(&small, 1, 2);
  profile_setup.wan = sim::wan_ideal(50.0);
  SumKernel kernel(params);
  const Profile p = ProfileCollector::collect(profile_setup, kernel);

  auto opts = global_options(profile_setup.compute_cluster,
                             {RoSizeClass::Constant,
                              GlobalReductionClass::ConstantLinear});
  const Predictor predictor(p, opts);

  auto target_setup = ideal_setup(&big, 1, 2);
  target_setup.wan = sim::wan_ideal(50.0);
  SumKernel target_kernel(params);
  const auto actual = freeride::Runtime().run(target_setup, target_kernel);
  ProfileConfig target = p.config;
  target.dataset_bytes = big.total_virtual_bytes();
  const auto predicted = predictor.predict(target);
  EXPECT_NEAR(predicted.total(), actual.timing.total.total(),
              1e-9 * actual.timing.total.total());
}

TEST(Predictor, ExactForBandwidthChangeOnIdealGrid) {
  const auto ds = make_sum_dataset(16, 64);
  auto profile_setup = ideal_setup(&ds, 2, 4);
  profile_setup.wan = sim::wan_ideal(50.0);
  SumKernel kernel;
  const Profile p = ProfileCollector::collect(profile_setup, kernel);

  auto opts = global_options(profile_setup.compute_cluster);
  const Predictor predictor(p, opts);

  auto target_setup = ideal_setup(&ds, 2, 4);
  target_setup.wan = sim::wan_ideal(12.5);  // quarter the bandwidth
  SumKernel target_kernel;
  const auto actual = freeride::Runtime().run(target_setup, target_kernel);
  ProfileConfig target = p.config;
  target.bandwidth_Bps = target_setup.wan.per_link_Bps;
  const auto predicted = predictor.predict(target);
  EXPECT_NEAR(predicted.network, actual.timing.total.network,
              1e-9 * actual.timing.total.network);
  EXPECT_NEAR(predicted.network, 4.0 * p.t_network, 1e-9 * p.t_network);
}

TEST(Predictor, GlobalModelBeatsNoCommOnRealisticCluster) {
  const auto ds = make_sum_dataset(32, 64, 1000.0);
  SumKernelParams params;
  params.constant_ballast = 256 * 1024;
  params.merge_flops = 5e6;
  params.global_flops = 5e6;
  auto profile_setup = pentium_setup(&ds, 1, 1);
  SumKernel kernel(params);
  const Profile p = ProfileCollector::collect(profile_setup, kernel);

  auto target_setup = pentium_setup(&ds, 1, 16);
  SumKernel target_kernel(params);
  const auto actual =
      freeride::Runtime().run(target_setup, target_kernel).timing.total;
  ProfileConfig target = p.config;
  target.compute_nodes = 16;

  auto err_for = [&](PredictionModel model) {
    auto opts = global_options(profile_setup.compute_cluster,
                               {RoSizeClass::Constant,
                                GlobalReductionClass::LinearConstant});
    opts.model = model;
    const auto predicted = Predictor(p, opts).predict(target);
    return util::relative_error(actual.total(), predicted.total());
  };
  const double e_none = err_for(PredictionModel::NoCommunication);
  const double e_global = err_for(PredictionModel::GlobalReduction);
  EXPECT_LT(e_global, e_none);
  EXPECT_LT(e_global, 0.05);
}

TEST(Predictor, NetworkNodeScalingTermCanBeRemoved) {
  Profile p = synthetic_profile(2, 100.0, 64.0, 0.0);
  p.config.data_nodes = 2;
  PredictorOptions opts;
  opts.model = PredictionModel::NoCommunication;
  opts.ipc = {1e-8, 1e-5};
  ProfileConfig target = p.config;
  target.data_nodes = 4;
  target.compute_nodes = 4;
  opts.network_throughput_scales_with_nodes = true;
  const auto scaled = Predictor(p, opts).predict(target);
  opts.network_throughput_scales_with_nodes = false;
  const auto unscaled = Predictor(p, opts).predict(target);
  EXPECT_DOUBLE_EQ(scaled.network, 0.5 * unscaled.network);
  EXPECT_DOUBLE_EQ(scaled.disk, unscaled.disk);  // disk term unaffected
}

// ----------------------------------------------------------------- hetero

TEST(Hetero, ScalingFactorsAverageComponentRatios) {
  std::vector<Profile> on_a, on_b;
  for (int i = 0; i < 3; ++i) {
    Profile a = synthetic_profile(4, 100.0, 64.0, 1.0);
    a.app = "app" + std::to_string(i);
    a.t_disk = 10.0;
    a.t_network = 20.0;
    a.t_compute = 40.0;
    Profile b = a;
    b.t_disk = 5.0;                      // ratio 0.5
    b.t_network = 10.0;                  // ratio 0.5
    b.t_compute = 10.0 * (i + 1);        // ratios 0.25, 0.5, 0.75
    on_a.push_back(a);
    on_b.push_back(b);
  }
  const auto f = compute_scaling_factors(on_a, on_b);
  EXPECT_DOUBLE_EQ(f.disk, 0.5);
  EXPECT_DOUBLE_EQ(f.network, 0.5);
  EXPECT_DOUBLE_EQ(f.compute, 0.5);
}

TEST(Hetero, MismatchedConfigurationsThrow) {
  Profile a = synthetic_profile(4, 100.0, 64.0, 1.0);
  Profile b = synthetic_profile(8, 100.0, 64.0, 1.0);  // different c
  b.app = a.app;
  EXPECT_THROW(
      compute_scaling_factors(std::vector<Profile>{a}, std::vector<Profile>{b}),
      util::Error);
}

TEST(Hetero, MissingAppThrows) {
  Profile a = synthetic_profile(4, 100.0, 64.0, 1.0);
  a.app = "only-on-a";
  Profile b = synthetic_profile(4, 100.0, 64.0, 1.0);
  b.app = "different";
  EXPECT_THROW(
      compute_scaling_factors(std::vector<Profile>{a}, std::vector<Profile>{b}),
      util::Error);
}

TEST(Hetero, EndToEndPredictionAcrossClusters) {
  // Profile and representative apps on Pentium; predict for Opteron.
  const auto ds = make_sum_dataset(32, 64, 100.0);

  // Three representative apps with different flop:byte mixes.
  std::vector<SumKernelParams> rep_params(3);
  rep_params[0].flops_per_element = 30.0;
  rep_params[0].bytes_per_element = 8.0;
  rep_params[1].flops_per_element = 10.0;
  rep_params[1].bytes_per_element = 24.0;
  rep_params[2].flops_per_element = 20.0;
  rep_params[2].bytes_per_element = 16.0;

  std::vector<Profile> on_a, on_b;
  for (int i = 0; i < 3; ++i) {
    auto setup_a = pentium_setup(&ds, 2, 4);
    SumKernel ka(rep_params[static_cast<std::size_t>(i)]);
    Profile pa = ProfileCollector::collect(setup_a, ka);
    pa.app = "rep" + std::to_string(i);
    on_a.push_back(pa);

    auto setup_b = setup_a;
    setup_b.data_cluster = sim::cluster_opteron_infiniband();
    setup_b.compute_cluster = sim::cluster_opteron_infiniband();
    SumKernel kb(rep_params[static_cast<std::size_t>(i)]);
    Profile pb = ProfileCollector::collect(setup_b, kb);
    pb.app = pa.app;
    on_b.push_back(pb);
  }
  const auto factors = compute_scaling_factors(on_a, on_b);
  EXPECT_LT(factors.compute, 1.0);  // Opteron is faster

  // Target app: a fourth mix, profiled on Pentium only.
  SumKernelParams target_params;
  target_params.flops_per_element = 25.0;
  target_params.bytes_per_element = 12.0;
  auto profile_setup = pentium_setup(&ds, 2, 4);
  SumKernel target_a(target_params);
  const Profile p = ProfileCollector::collect(profile_setup, target_a);

  auto opts = global_options(profile_setup.compute_cluster);
  const HeteroPredictor hp(Predictor(p, opts), factors);

  // Actual execution on the Opteron cluster at 4-8.
  auto actual_setup = pentium_setup(&ds, 4, 8);
  actual_setup.data_cluster = sim::cluster_opteron_infiniband();
  actual_setup.compute_cluster = sim::cluster_opteron_infiniband();
  SumKernel target_b(target_params);
  const auto actual =
      freeride::Runtime().run(actual_setup, target_b).timing.total;

  ProfileConfig target = p.config;
  target.data_nodes = 4;
  target.compute_nodes = 8;
  const auto predicted = hp.predict(target);
  // Averaged factors carry error, but must land in the right ballpark.
  EXPECT_LT(util::relative_error(actual.total(), predicted.total()), 0.25);
}

}  // namespace
}  // namespace fgp::core
