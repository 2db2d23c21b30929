// Tests for volumetric (3-D) vortex detection: planted-tube recall,
// agreement with the serial reference, slab-thickness invariance, and
// cross-slab joining of tubes spanning many chunks.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/vortex3d.h"
#include "datagen/flowfield3d.h"
#include "helpers.h"

namespace fgp::apps {
namespace {

using fgp::testing::ideal_setup;

datagen::Flow3dDataset small_volume(std::uint64_t seed = 23,
                                    int planes_per_chunk = 4) {
  datagen::Flow3dSpec spec;
  spec.nx = 40;
  spec.ny = 40;
  spec.nz = 64;
  spec.num_tubes = 3;
  spec.min_radius = 4.0;
  spec.max_radius = 7.0;
  spec.min_length = 24.0;
  spec.planes_per_chunk = planes_per_chunk;
  spec.seed = seed;
  return datagen::generate_flowfield3d(spec);
}

Vortex3dParams default_params() {
  Vortex3dParams p;
  p.vorticity_threshold = 0.8;
  p.min_cells = 64;
  return p;
}

std::vector<Vortex3d> run_parallel(const datagen::Flow3dDataset& flow, int n,
                                   int c, const Vortex3dParams& params) {
  Vortex3dKernel kernel(params);
  auto setup = ideal_setup(&flow.dataset, n, c);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  return dynamic_cast<const Vortex3dObject&>(*result.result).vortices;
}

TEST(Volume, ChunksCoverAllPlanesOnce) {
  const auto flow = small_volume();
  std::vector<int> owned(static_cast<std::size_t>(flow.nz), 0);
  for (const auto& chunk : flow.dataset.chunks()) {
    const auto view = datagen::parse_volume_chunk(chunk);
    for (std::uint32_t p = 0; p < view.header.planes; ++p)
      owned[view.header.z0 + p] += 1;
  }
  for (const int count : owned) EXPECT_EQ(count, 1);
}

TEST(Volume, HaloPlanesMatchNeighbours) {
  const auto flow = small_volume();
  for (std::size_t k = 0; k + 1 < flow.dataset.chunk_count(); ++k) {
    const auto a = datagen::parse_volume_chunk(flow.dataset.chunk(k));
    const auto b = datagen::parse_volume_chunk(flow.dataset.chunk(k + 1));
    const std::uint32_t shared = b.header.z0;
    for (std::uint32_t y = 0; y < a.header.ny; ++y)
      for (std::uint32_t x = 0; x < a.header.nx; ++x)
        EXPECT_EQ(a.at(shared, y, x).u, b.at(shared, y, x).u);
  }
}

TEST(Volume, MalformedChunkRejected) {
  const auto chunk = repository::make_chunk<std::uint8_t>(0, {1, 2, 3});
  EXPECT_THROW(datagen::parse_volume_chunk(chunk), util::Error);
}

TEST(Vortex3d, DetectsAllPlantedTubes) {
  const auto flow = small_volume();
  const auto found = run_parallel(flow, 2, 4, default_params());
  ASSERT_EQ(found.size(), flow.tubes.size());
  for (const auto& tube : flow.tubes) {
    double best = 1e300;
    const Vortex3d* match = nullptr;
    for (const auto& v : found) {
      const double d = std::hypot(v.cx - tube.cx, v.cy - tube.cy);
      if (d < best) {
        best = d;
        match = &v;
      }
    }
    ASSERT_NE(match, nullptr);
    EXPECT_LT(best, tube.core_radius);
    // The tube's centroid-z falls inside its planted extent.
    EXPECT_GT(match->cz, tube.z_lo - 2.0);
    EXPECT_LT(match->cz, tube.z_hi + 2.0);
    EXPECT_EQ(match->sign, tube.circulation > 0 ? 1 : -1);
  }
}

TEST(Vortex3d, ParallelMatchesSerialReference) {
  const auto flow = small_volume();
  const auto params = default_params();
  const auto ref = vortex3d_reference(flow, params);
  const auto par = run_parallel(flow, 2, 8, params);
  ASSERT_EQ(par.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(par[i].cells, ref[i].cells);
    EXPECT_EQ(par[i].sign, ref[i].sign);
    EXPECT_NEAR(par[i].cx, ref[i].cx, 1e-9);
    EXPECT_NEAR(par[i].cz, ref[i].cz, 1e-9);
  }
}

TEST(Vortex3d, InvariantToSlabThickness) {
  const auto thin = small_volume(23, 2);
  const auto thick = small_volume(23, 16);
  const auto params = default_params();
  const auto a = run_parallel(thin, 1, 8, params);
  const auto b = run_parallel(thick, 1, 2, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cells, b[i].cells);
    EXPECT_NEAR(a[i].cz, b[i].cz, 1e-9);
  }
}

TEST(Vortex3d, TubesSpanManySlabs) {
  // With 2-plane slabs, each >=24-plane tube crosses >=12 chunk
  // boundaries; the joined result must still be one region per tube.
  const auto flow = small_volume(23, 2);
  EXPECT_GE(flow.dataset.chunk_count(), 32u);
  const auto found = run_parallel(flow, 4, 8, default_params());
  EXPECT_EQ(found.size(), flow.tubes.size());
}

TEST(Vortex3d, QuietVolumeHasNoVortices) {
  datagen::Flow3dSpec spec;
  spec.nx = 24;
  spec.ny = 24;
  spec.nz = 24;
  spec.num_tubes = 0;
  spec.noise = 0.005;
  const auto flow = datagen::generate_flowfield3d(spec);
  EXPECT_TRUE(run_parallel(flow, 1, 2, default_params()).empty());
}

TEST(Vortex3d, SortedBySizeDescending) {
  const auto flow = small_volume();
  const auto found = run_parallel(flow, 1, 2, default_params());
  for (std::size_t i = 1; i < found.size(); ++i)
    EXPECT_LE(found[i].cells, found[i - 1].cells);
}

TEST(Vortex3d, ObjectSerializationRoundTrip) {
  Vortex3dObject o;
  RegionFragment3d f;
  f.sign = -1;
  f.cells = 5;
  f.sum_z = 10.0;
  f.boundary = {{1, 2, 3}};
  o.fragments.push_back(f);
  o.vortices.push_back({1, 2, 3, 99, -1});
  util::ByteWriter w;
  o.serialize(w);
  Vortex3dObject back;
  util::ByteReader r(w.bytes());
  back.deserialize(r);
  ASSERT_EQ(back.fragments.size(), 1u);
  EXPECT_EQ(back.fragments[0].boundary[0].x, 3);
  ASSERT_EQ(back.vortices.size(), 1u);
  EXPECT_EQ(back.vortices[0].cells, 99u);
}

TEST(Vortex3d, ObjectSizeTracksLocalData) {
  const auto flow = small_volume();
  auto object_size = [&flow](int c) {
    Vortex3dKernel kernel(default_params());
    auto setup = ideal_setup(&flow.dataset, 1, c);
    freeride::Runtime runtime;
    return runtime.run(setup, kernel).timing.max_object_bytes;
  };
  EXPECT_GT(object_size(1), 1.8 * object_size(4));
}

class Vortex3dConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Vortex3dConfigSweep, InvariantAcrossConfigs) {
  const auto [n, c] = GetParam();
  static const auto flow = small_volume();
  static const auto baseline = vortex3d_reference(flow, default_params());
  const auto found = run_parallel(flow, n, c, default_params());
  ASSERT_EQ(found.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i)
    EXPECT_EQ(found[i].cells, baseline[i].cells);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Vortex3dConfigSweep,
    fgp::testing::valid_configs({1, 2, 4}, {1, 2, 8}));

}  // namespace
}  // namespace fgp::apps
