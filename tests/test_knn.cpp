// Tests for the k-NN search application: exactness vs brute force,
// invariance across configurations, and k-list mechanics.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/knn.h"
#include "datagen/points.h"
#include "helpers.h"

namespace fgp::apps {
namespace {

using fgp::testing::ideal_setup;

struct Fixture {
  datagen::PointsDataset data;
  std::vector<double> all_points;
  std::vector<double> queries;

  explicit Fixture(std::uint64_t seed = 42, std::uint64_t n = 1500,
                   int dim = 3) {
    datagen::PointsSpec spec;
    spec.num_points = n;
    spec.dim = dim;
    spec.num_components = 4;
    spec.points_per_chunk = 128;
    spec.seed = seed;
    data = datagen::generate_points(spec);
    for (const auto& chunk : data.dataset.chunks()) {
      const auto pts = chunk.as_span<double>();
      all_points.insert(all_points.end(), pts.begin(), pts.end());
    }
    // Queries: a few perturbed data points plus one far outlier.
    for (int q = 0; q < 4; ++q)
      for (int j = 0; j < dim; ++j)
        queries.push_back(all_points[static_cast<std::size_t>(q) * 37 *
                                         static_cast<std::size_t>(dim) +
                                     static_cast<std::size_t>(j)] +
                          0.01 * q);
    for (int j = 0; j < dim; ++j) queries.push_back(500.0 + j);
  }
};

KnnParams make_params(const Fixture& f, int k) {
  KnnParams p;
  p.queries = f.queries;
  p.k = k;
  p.dim = f.data.dim;
  return p;
}

TEST(Knn, ObjectInsertKeepsSorted) {
  KnnObject o(1, 3, 2);
  const double p1[2] = {1, 1}, p2[2] = {2, 2}, p3[2] = {3, 3}, p4[2] = {0, 0};
  o.insert(0, 5.0, p1);
  o.insert(0, 2.0, p2);
  o.insert(0, 9.0, p3);
  EXPECT_DOUBLE_EQ(o.dists[0], 2.0);
  EXPECT_DOUBLE_EQ(o.dists[1], 5.0);
  EXPECT_DOUBLE_EQ(o.dists[2], 9.0);
  o.insert(0, 1.0, p4);  // evicts 9.0
  EXPECT_DOUBLE_EQ(o.dists[0], 1.0);
  EXPECT_DOUBLE_EQ(o.dists[2], 5.0);
  EXPECT_DOUBLE_EQ(o.coords[0], 0.0);  // p4 moved to front
}

TEST(Knn, InsertWorseThanKthIsIgnored) {
  KnnObject o(1, 2, 1);
  const double p[1] = {1};
  o.insert(0, 1.0, p);
  o.insert(0, 2.0, p);
  o.insert(0, 3.0, p);
  EXPECT_DOUBLE_EQ(o.kth_distance(0), 2.0);
}

TEST(Knn, ObjectSerializationRoundTrip) {
  KnnObject o(2, 2, 1);
  const double p[1] = {7};
  o.insert(0, 1.5, p);
  util::ByteWriter w;
  o.serialize(w);
  KnnObject back;
  util::ByteReader r(w.bytes());
  back.deserialize(r);
  EXPECT_EQ(back.num_queries, 2);
  EXPECT_DOUBLE_EQ(back.dists[0], 1.5);
  EXPECT_DOUBLE_EQ(back.coords[0], 7.0);
}

TEST(Knn, RejectsBadParams) {
  KnnParams p;
  p.k = 2;
  p.dim = 3;
  p.queries = {1.0, 2.0};  // not a multiple of dim
  EXPECT_THROW(KnnKernel{p}, util::Error);
}

TEST(Knn, MatchesBruteForceExactly) {
  Fixture f;
  KnnKernel kernel(make_params(f, 8));
  auto setup = ideal_setup(&f.data.dataset, 2, 4);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const KnnObject&>(*result.result);

  const std::size_t m = f.queries.size() / 3;
  for (std::size_t q = 0; q < m; ++q) {
    const auto ref =
        knn_reference(f.all_points, 3, f.queries.data() + q * 3, 8);
    for (int i = 0; i < 8; ++i)
      EXPECT_DOUBLE_EQ(obj.dists[q * 8 + i], ref[static_cast<std::size_t>(i)])
          << "query " << q << " rank " << i;
  }
}

TEST(Knn, NeighbourCoordinatesAreConsistentWithDistances) {
  Fixture f;
  KnnKernel kernel(make_params(f, 4));
  auto setup = ideal_setup(&f.data.dataset, 1, 2);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const KnnObject&>(*result.result);
  const std::size_t m = f.queries.size() / 3;
  for (std::size_t q = 0; q < m; ++q) {
    for (int i = 0; i < 4; ++i) {
      double d2 = 0.0;
      for (int j = 0; j < 3; ++j) {
        const double diff = obj.coords[(q * 4 + i) * 3 + j] -
                            f.queries[q * 3 + static_cast<std::size_t>(j)];
        d2 += diff * diff;
      }
      EXPECT_NEAR(d2, obj.dists[q * 4 + static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

TEST(Knn, SinglePassAlgorithm) {
  Fixture f;
  KnnKernel kernel(make_params(f, 4));
  auto setup = ideal_setup(&f.data.dataset, 1, 1);
  freeride::Runtime runtime;
  EXPECT_EQ(runtime.run(setup, kernel).passes, 1);
}

TEST(Knn, KLargerThanDatasetPadsWithInfinity) {
  repository::DatasetMeta meta{"tiny", "f64", 0};
  repository::ChunkedDataset ds(meta);
  ds.add_chunk(repository::make_chunk<double>(0, {0.0, 0.0}));
  KnnParams p;
  p.k = 4;
  p.dim = 2;
  p.queries = {0.0, 0.0};
  KnnKernel kernel(p);
  auto setup = ideal_setup(&ds, 1, 1);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const KnnObject&>(*result.result);
  EXPECT_DOUBLE_EQ(obj.dists[0], 0.0);
  for (int i = 1; i < 4; ++i)
    EXPECT_TRUE(std::isinf(obj.dists[static_cast<std::size_t>(i)]));
}

class KnnConfigSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnConfigSweep, ExactAcrossConfigs) {
  const auto [n, c] = GetParam();
  static const Fixture f;
  KnnKernel kernel(make_params(f, 5));
  auto setup = ideal_setup(&f.data.dataset, n, c);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  const auto& obj = dynamic_cast<const KnnObject&>(*result.result);
  const auto ref = knn_reference(f.all_points, 3, f.queries.data(), 5);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(obj.dists[static_cast<std::size_t>(i)],
                     ref[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KnnConfigSweep,
    fgp::testing::valid_configs({1, 2, 4}, {1, 4, 8}));

}  // namespace
}  // namespace fgp::apps
