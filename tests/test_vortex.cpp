// Tests for the vortex-detection application: recall of planted vortices,
// agreement with the serial reference, cross-band joining, de-noising, and
// object behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/vortex.h"
#include "datagen/flowfield.h"
#include "helpers.h"

namespace fgp::apps {
namespace {

using fgp::testing::ideal_setup;

datagen::FlowDataset small_flow(std::uint64_t seed = 7, int rows_per_chunk = 8) {
  datagen::FlowSpec spec;
  spec.width = 96;
  spec.height = 96;
  spec.num_vortices = 3;
  spec.min_radius = 5.0;
  spec.max_radius = 9.0;
  spec.rows_per_chunk = rows_per_chunk;
  spec.seed = seed;
  return datagen::generate_flowfield(spec);
}

VortexParams default_params() {
  VortexParams p;
  p.vorticity_threshold = 0.8;
  p.min_cells = 8;
  return p;
}

std::vector<Vortex> run_parallel(const datagen::FlowDataset& flow, int n,
                                 int c, const VortexParams& params) {
  VortexKernel kernel(params);
  auto setup = ideal_setup(&flow.dataset, n, c);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  return dynamic_cast<const VortexObject&>(*result.result).vortices;
}

TEST(Vortex, ObjectSerializationRoundTrip) {
  VortexObject o;
  RegionFragment f;
  f.sign = -1;
  f.cells = 12;
  f.sum_x = 34.0;
  f.sum_y = 56.0;
  f.boundary = {{3, 4}, {3, 5}};
  o.fragments.push_back(f);
  o.vortices.push_back({1.5, 2.5, 20, 1});
  util::ByteWriter w;
  o.serialize(w);
  VortexObject back;
  util::ByteReader r(w.bytes());
  back.deserialize(r);
  ASSERT_EQ(back.fragments.size(), 1u);
  EXPECT_EQ(back.fragments[0].sign, -1);
  EXPECT_EQ(back.fragments[0].boundary.size(), 2u);
  EXPECT_EQ(back.fragments[0].boundary[1].x, 5);
  ASSERT_EQ(back.vortices.size(), 1u);
  EXPECT_DOUBLE_EQ(back.vortices[0].cx, 1.5);
}

TEST(Vortex, DetectsAllPlantedVortices) {
  const auto flow = small_flow();
  const auto found = run_parallel(flow, 2, 4, default_params());
  ASSERT_EQ(found.size(), flow.vortices.size());
  for (const auto& planted : flow.vortices) {
    double best = 1e300;
    const Vortex* match = nullptr;
    for (const auto& v : found) {
      const double d = std::hypot(v.cx - planted.cx, v.cy - planted.cy);
      if (d < best) {
        best = d;
        match = &v;
      }
    }
    ASSERT_NE(match, nullptr);
    EXPECT_LT(best, planted.core_radius) << "centroid too far off";
    // Rotation sense must match the planted circulation sign.
    EXPECT_EQ(match->sign, planted.circulation > 0 ? 1 : -1);
  }
}

TEST(Vortex, ParallelMatchesSerialReference) {
  const auto flow = small_flow();
  const auto params = default_params();
  const auto ref = vortex_reference(flow, params);
  const auto par = run_parallel(flow, 2, 8, params);
  ASSERT_EQ(par.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(par[i].cells, ref[i].cells);
    EXPECT_EQ(par[i].sign, ref[i].sign);
    EXPECT_NEAR(par[i].cx, ref[i].cx, 1e-9);
    EXPECT_NEAR(par[i].cy, ref[i].cy, 1e-9);
  }
}

TEST(Vortex, ResultInvariantToBandWidth) {
  // The same field chunked into thin or thick bands yields the same
  // vortices (halo rows make the stencil seamless; the global combine
  // rejoins what the chunking split).
  const auto thin = small_flow(7, 4);
  const auto thick = small_flow(7, 32);
  const auto params = default_params();
  const auto a = run_parallel(thin, 1, 4, params);
  const auto b = run_parallel(thick, 1, 2, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cells, b[i].cells);
    EXPECT_NEAR(a[i].cx, b[i].cx, 1e-9);
    EXPECT_NEAR(a[i].cy, b[i].cy, 1e-9);
  }
}

TEST(Vortex, SortedBySizeDescending) {
  const auto flow = small_flow();
  const auto found = run_parallel(flow, 1, 2, default_params());
  for (std::size_t i = 1; i < found.size(); ++i)
    EXPECT_LE(found[i].cells, found[i - 1].cells);
}

TEST(Vortex, DenoisingDropsSmallRegions) {
  const auto flow = small_flow();
  auto params = default_params();
  params.min_cells = 1;
  const auto all = run_parallel(flow, 1, 1, params);
  params.min_cells = 1000000;
  const auto none = run_parallel(flow, 1, 1, params);
  EXPECT_GE(all.size(), 3u);
  EXPECT_TRUE(none.empty());
}

TEST(Vortex, QuietFieldHasNoVortices) {
  datagen::FlowSpec spec;
  spec.width = 64;
  spec.height = 64;
  spec.num_vortices = 0;
  spec.noise = 0.005;
  const auto flow = datagen::generate_flowfield(spec);
  const auto found = run_parallel(flow, 1, 2, default_params());
  EXPECT_TRUE(found.empty());
}

TEST(Vortex, ObjectSizeTracksLocalData) {
  const auto flow = small_flow();
  auto object_size = [&flow](int c) {
    VortexKernel kernel(default_params());
    auto setup = ideal_setup(&flow.dataset, 1, c);
    freeride::Runtime runtime;
    return runtime.run(setup, kernel).timing.max_object_bytes;
  };
  EXPECT_GT(object_size(1), 1.9 * object_size(4));
  EXPECT_TRUE(VortexKernel(default_params()).reduction_object_scales_with_data());
}

class VortexConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VortexConfigSweep, InvariantAcrossConfigs) {
  const auto [n, c] = GetParam();
  static const auto flow = small_flow();
  static const auto baseline = vortex_reference(flow, default_params());
  const auto found = run_parallel(flow, n, c, default_params());
  ASSERT_EQ(found.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i)
    EXPECT_EQ(found[i].cells, baseline[i].cells);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VortexConfigSweep,
    fgp::testing::valid_configs({1, 2, 4}, {1, 2, 8}));

}  // namespace
}  // namespace fgp::apps
