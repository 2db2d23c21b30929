// Tests for the molecular defect detection and categorization application:
// recall of planted defects, cross-slab joining, catalog behaviour, and
// agreement with the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "apps/defect.h"
#include "datagen/lattice.h"
#include "helpers.h"

namespace fgp::apps {
namespace {

using fgp::testing::ideal_setup;

datagen::LatticeDataset small_lattice(std::uint64_t seed = 11,
                                      int zslabs_per_chunk = 4) {
  datagen::LatticeSpec spec;
  spec.nx = 16;
  spec.ny = 16;
  spec.nz = 32;
  spec.num_vacancy_clusters = 3;
  spec.num_interstitials = 2;
  spec.num_displaced_clusters = 2;
  spec.max_cluster_cells = 4;
  spec.zslabs_per_chunk = zslabs_per_chunk;
  spec.seed = seed;
  return datagen::generate_lattice(spec);
}

std::vector<CategorizedDefect> run_parallel(
    const datagen::LatticeDataset& lattice, int n, int c,
    DefectKernel* kernel_out = nullptr) {
  DefectKernel kernel;
  auto setup = ideal_setup(&lattice.dataset, n, c);
  freeride::Runtime runtime;
  const auto result = runtime.run(setup, kernel);
  if (kernel_out) *kernel_out = kernel;
  return dynamic_cast<const DefectObject&>(*result.result).categorized;
}

std::set<std::array<int, 3>> cell_set(const std::vector<std::int32_t>& cells) {
  std::set<std::array<int, 3>> out;
  for (std::size_t c = 0; c + 2 < cells.size() + 1; c += 3)
    out.insert({cells[c], cells[c + 1], cells[c + 2]});
  return out;
}

TEST(Defect, SignatureIsTranslationInvariant) {
  const std::vector<std::int32_t> at_origin{0, 0, 0, 1, 0, 0};
  const std::vector<std::int32_t> shifted{5, 7, 9, 6, 7, 9};
  EXPECT_EQ(defect_signature(0, at_origin), defect_signature(0, shifted));
}

TEST(Defect, SignatureDistinguishesKinds) {
  const std::vector<std::int32_t> cells{0, 0, 0};
  EXPECT_NE(defect_signature(0, cells), defect_signature(1, cells));
}

TEST(Defect, SignatureDistinguishesShapes) {
  const std::vector<std::int32_t> line{0, 0, 0, 1, 0, 0};
  const std::vector<std::int32_t> column{0, 0, 0, 0, 1, 0};
  EXPECT_NE(defect_signature(0, line), defect_signature(0, column));
}

TEST(Defect, ObjectSerializationRoundTrip) {
  DefectObject o;
  o.structures.push_back({2, {1, 2, 3, 4, 5, 6}});
  CategorizedDefect cd;
  cd.class_id = 3;
  cd.kind = 1;
  cd.cell_count = 1;
  cd.cx = 1.0;
  cd.cells = {1, 1, 1};
  o.categorized.push_back(cd);
  util::ByteWriter w;
  o.serialize(w);
  DefectObject back;
  util::ByteReader r(w.bytes());
  back.deserialize(r);
  ASSERT_EQ(back.structures.size(), 1u);
  EXPECT_EQ(back.structures[0].cells, o.structures[0].cells);
  ASSERT_EQ(back.categorized.size(), 1u);
  EXPECT_EQ(back.categorized[0].class_id, 3u);
}

TEST(Defect, DetectsAllPlantedDefects) {
  const auto lattice = small_lattice();
  const auto found = run_parallel(lattice, 2, 4);
  ASSERT_EQ(found.size(), lattice.defects.size());

  for (const auto& planted : lattice.defects) {
    std::set<std::array<int, 3>> planted_cells;
    for (const auto& c : planted.cells)
      planted_cells.insert({c[0], c[1], c[2]});
    bool matched = false;
    for (const auto& f : found) {
      if (f.kind != static_cast<std::uint8_t>(planted.kind)) continue;
      if (cell_set(f.cells) == planted_cells) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "planted defect not recovered exactly";
  }
}

TEST(Defect, ParallelMatchesSerialReference) {
  const auto lattice = small_lattice();
  const auto ref = defect_reference(lattice);
  const auto par = run_parallel(lattice, 2, 8);
  ASSERT_EQ(par.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(par[i].class_id, ref[i].class_id);
    EXPECT_EQ(par[i].kind, ref[i].kind);
    EXPECT_EQ(par[i].cells, ref[i].cells);
  }
}

TEST(Defect, ResultInvariantToSlabThickness) {
  const auto thin = small_lattice(11, 2);
  const auto thick = small_lattice(11, 16);
  const auto a = run_parallel(thin, 1, 4);
  const auto b = run_parallel(thick, 1, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cells, b[i].cells);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
}

TEST(Defect, SameShapesShareClasses) {
  const auto lattice = small_lattice();
  const auto found = run_parallel(lattice, 1, 2);
  std::map<DefectSignature, std::uint32_t> seen;
  for (const auto& f : found) {
    const auto sig = defect_signature(f.kind, f.cells);
    const auto [it, inserted] = seen.emplace(sig, f.class_id);
    if (!inserted) {
      EXPECT_EQ(it->second, f.class_id);
    }
  }
}

TEST(Defect, CatalogGrowsOnlyForNewShapes) {
  const auto lattice = small_lattice();
  DefectKernel kernel;
  auto setup = ideal_setup(&lattice.dataset, 1, 2);
  freeride::Runtime runtime;
  runtime.run(setup, kernel);
  const auto catalog_after_first = kernel.catalog();
  EXPECT_GT(catalog_after_first.size(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(kernel.new_classes()),
            catalog_after_first.size());

  // Re-running the same data against the learned catalog adds nothing.
  DefectParams params;
  params.initial_catalog = catalog_after_first;
  DefectKernel warm(params);
  freeride::Runtime runtime2;
  auto setup2 = ideal_setup(&lattice.dataset, 1, 2);
  runtime2.run(setup2, warm);
  EXPECT_EQ(warm.new_classes(), 0);
  EXPECT_EQ(warm.catalog().size(), catalog_after_first.size());
}

TEST(Defect, BroadcastBytesTrackCatalog) {
  DefectKernel empty;
  EXPECT_DOUBLE_EQ(empty.broadcast_bytes(), 0.0);
  DefectParams params;
  params.initial_catalog[{0, 0, 0, 0}] = 0;
  DefectKernel seeded(params);
  EXPECT_GT(seeded.broadcast_bytes(), 0.0);
}

TEST(Defect, PristineLatticeHasNoDefects) {
  datagen::LatticeSpec spec;
  spec.nx = 12;
  spec.ny = 12;
  spec.nz = 12;
  spec.num_vacancy_clusters = 0;
  spec.num_interstitials = 0;
  spec.num_displaced_clusters = 0;
  const auto lattice = datagen::generate_lattice(spec);
  const auto found = run_parallel(lattice, 1, 1);
  EXPECT_TRUE(found.empty());
}

TEST(Defect, KindsAreReportedCorrectly) {
  const auto lattice = small_lattice();
  const auto found = run_parallel(lattice, 1, 2);
  int vac = 0, inter = 0, disp = 0;
  for (const auto& f : found) {
    if (f.kind == static_cast<std::uint8_t>(datagen::DefectKind::Vacancy))
      ++vac;
    if (f.kind == static_cast<std::uint8_t>(datagen::DefectKind::Interstitial))
      ++inter;
    if (f.kind == static_cast<std::uint8_t>(datagen::DefectKind::Displaced))
      ++disp;
  }
  EXPECT_EQ(vac, 3);
  EXPECT_EQ(inter, 2);
  EXPECT_EQ(disp, 2);
}

class DefectConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DefectConfigSweep, InvariantAcrossConfigs) {
  const auto [n, c] = GetParam();
  static const auto lattice = small_lattice();
  static const auto baseline = defect_reference(lattice);
  const auto found = run_parallel(lattice, n, c);
  ASSERT_EQ(found.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i)
    EXPECT_EQ(found[i].cells, baseline[i].cells);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DefectConfigSweep,
    fgp::testing::valid_configs({1, 2, 4}, {1, 2, 8}));

}  // namespace
}  // namespace fgp::apps
