// Tests for the k-means application: correctness vs the serial reference,
// invariance across parallel configurations, objective monotonicity, and
// reduction-object behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/kmeans.h"
#include "datagen/points.h"
#include "helpers.h"

namespace fgp::apps {
namespace {

using fgp::testing::ideal_setup;

struct Fixture {
  datagen::PointsDataset data;
  std::vector<double> all_points;

  explicit Fixture(std::uint64_t seed = 42, std::uint64_t n = 3000, int dim = 4,
                   int comps = 3) {
    datagen::PointsSpec spec;
    spec.num_points = n;
    spec.dim = dim;
    spec.num_components = comps;
    spec.points_per_chunk = 250;
    spec.seed = seed;
    data = datagen::generate_points(spec);
    for (const auto& chunk : data.dataset.chunks()) {
      const auto pts = chunk.as_span<double>();
      all_points.insert(all_points.end(), pts.begin(), pts.end());
    }
  }
};

KMeansParams make_params(const Fixture& f, int k, int fixed_passes = 0) {
  KMeansParams p;
  p.k = k;
  p.dim = f.data.dim;
  p.initial_centers = initial_centers_from_dataset(f.data.dataset, k, f.data.dim);
  p.fixed_passes = fixed_passes;
  return p;
}

TEST(KMeans, ObjectSerializationRoundTrip) {
  KMeansObject o(3, 2);
  o.sums_ = {1, 2, 3, 4, 5, 6};
  o.counts_ = {7, 8, 9};
  o.sse = 2.5;
  util::ByteWriter w;
  o.serialize(w);
  KMeansObject back;
  util::ByteReader r(w.bytes());
  back.deserialize(r);
  EXPECT_EQ(back.sums_, o.sums_);
  EXPECT_EQ(back.counts_, o.counts_);
  EXPECT_DOUBLE_EQ(back.sse, o.sse);
}

TEST(KMeans, RejectsBadParams) {
  KMeansParams p;
  p.k = 3;
  p.dim = 2;
  p.initial_centers = {1.0};  // wrong size
  EXPECT_THROW(KMeansKernel{p}, util::Error);
}

TEST(KMeans, InitialCentersComeFromFirstPoints) {
  Fixture f;
  const auto centers = initial_centers_from_dataset(f.data.dataset, 2, 4);
  ASSERT_EQ(centers.size(), 8u);
  for (int j = 0; j < 8; ++j)
    EXPECT_DOUBLE_EQ(centers[j], f.all_points[j]);
}

TEST(KMeans, InitialCentersThrowWhenTooFewPoints) {
  Fixture f(1, 4, 4, 1);  // only 4 points
  EXPECT_THROW(initial_centers_from_dataset(f.data.dataset, 5, 4),
               util::Error);
}

TEST(KMeans, MatchesSerialReference) {
  Fixture f;
  const auto params = make_params(f, 3, 8);
  KMeansKernel kernel(params);
  auto setup = ideal_setup(&f.data.dataset, 2, 4);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);

  const auto ref = kmeans_reference(f.all_points, f.data.dim, 3,
                                    params.initial_centers, -1.0, 8, nullptr);
  ASSERT_EQ(kernel.centers().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(kernel.centers()[i], ref[i], 1e-8);
}

TEST(KMeans, ObjectiveNonIncreasing) {
  Fixture f;
  KMeansKernel kernel(make_params(f, 3, 10));
  auto setup = ideal_setup(&f.data.dataset, 1, 2);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);
  const auto& hist = kernel.objective_history();
  ASSERT_GE(hist.size(), 2u);
  for (std::size_t i = 1; i < hist.size(); ++i)
    EXPECT_LE(hist[i], hist[i - 1] + 1e-6);
}

TEST(KMeans, RecoversPlantedCenters) {
  Fixture f(7, 6000, 2, 3);
  KMeansKernel kernel(make_params(f, 3, 25));
  auto setup = ideal_setup(&f.data.dataset, 1, 4);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);
  // Every planted centre must be close to some recovered centre.
  for (int c = 0; c < 3; ++c) {
    double best = 1e300;
    for (int r = 0; r < 3; ++r) {
      double d2 = 0.0;
      for (int j = 0; j < 2; ++j) {
        const double diff = f.data.true_centers[2 * c + j] -
                            kernel.centers()[2 * r + j];
        d2 += diff * diff;
      }
      best = std::min(best, d2);
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(KMeans, ConvergesUnderTolerance) {
  Fixture f;
  auto params = make_params(f, 3);
  params.tol = 1e-3;
  KMeansKernel kernel(params);
  auto setup = ideal_setup(&f.data.dataset, 1, 1);
  setup.config.max_passes = 100;
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  EXPECT_LT(result.passes, 100);
  EXPECT_EQ(result.passes, kernel.passes_run());
}

TEST(KMeans, ConstantObjectSizeAcrossConfigs) {
  Fixture f;
  double size_1 = 0, size_8 = 0;
  {
    KMeansKernel kernel(make_params(f, 3, 2));
    auto setup = ideal_setup(&f.data.dataset, 1, 1);
    freeride::Runtime runtime;
    size_1 = runtime.run(setup, kernel).timing.max_object_bytes;
  }
  {
    KMeansKernel kernel(make_params(f, 3, 2));
    auto setup = ideal_setup(&f.data.dataset, 1, 8);
    freeride::Runtime runtime;
    size_8 = runtime.run(setup, kernel).timing.max_object_bytes;
  }
  EXPECT_DOUBLE_EQ(size_1, size_8);
  EXPECT_FALSE(KMeansKernel(make_params(f, 3)).reduction_object_scales_with_data());
}

TEST(KMeans, BroadcastsCenters) {
  Fixture f;
  KMeansKernel kernel(make_params(f, 3));
  EXPECT_DOUBLE_EQ(kernel.broadcast_bytes(), 3 * 4 * sizeof(double));
}

TEST(KMeans, EmptyClusterKeepsItsCenter) {
  // Two identical far-away initial centres: one will starve and must not
  // produce NaNs.
  repository::DatasetMeta meta{"tiny", "f64", 0};
  repository::ChunkedDataset ds(meta);
  ds.add_chunk(repository::make_chunk<double>(0, {0.0, 0.0, 1.0, 1.0}));
  KMeansParams p;
  p.k = 2;
  p.dim = 2;
  p.initial_centers = {0.5, 0.5, 99.0, 99.0};
  p.fixed_passes = 3;
  KMeansKernel kernel(p);
  auto setup = ideal_setup(&ds, 1, 1);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);
  EXPECT_DOUBLE_EQ(kernel.centers()[2], 99.0);
  for (double c : kernel.centers()) EXPECT_TRUE(std::isfinite(c));
}

class KMeansConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KMeansConfigSweep, CentersInvariantAcrossConfigs) {
  const auto [n, c] = GetParam();
  static const Fixture f;  // shared across instantiations
  const auto params = make_params(f, 3, 5);

  static std::vector<double> baseline;
  if (baseline.empty()) {
    KMeansKernel ref(params);
    auto setup = ideal_setup(&f.data.dataset, 1, 1);
    freeride::Runtime runtime;
    runtime.run(setup, ref);
    baseline = ref.centers();
  }

  KMeansKernel kernel(params);
  auto setup = ideal_setup(&f.data.dataset, n, c);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);
  ASSERT_EQ(kernel.centers().size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i)
    EXPECT_NEAR(kernel.centers()[i], baseline[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KMeansConfigSweep,
    fgp::testing::valid_configs({1, 2, 4}, {1, 2, 4, 8}));

}  // namespace
}  // namespace fgp::apps
