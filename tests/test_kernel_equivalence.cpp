// test_kernel_equivalence.cpp — blocked fast paths vs naive scalar
// references.
//
// The kernels in src/apps/ run on the register-blocked helpers in
// util/simd.h. These tests pin the contract from DESIGN.md §10: the
// distance kernels (k-means, k-NN) keep each point's serial coordinate
// order and must equal a naive scalar loop bit for bit; the lane-blocked
// helpers and the kernels built on them (EM, ANN) reassociate their sums
// in a fixed order and agree with a serial evaluation within a small
// relative tolerance; repeat runs are bit-identical; and the shapes that
// stress the lane tail (odd counts, tiny d, d not a multiple of the block
// width) behave like the aligned ones. The integer-valued vortex and
// defect kernels must match their seed scalar sweeps exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <unordered_map>
#include <vector>

#include "apps/ann.h"
#include "apps/defect.h"
#include "apps/em.h"
#include "apps/kmeans.h"
#include "apps/knn.h"
#include "apps/vortex.h"
#include "datagen/flowfield.h"
#include "datagen/lattice.h"
#include "repository/chunk.h"
#include "repository/store.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/simd.h"
#include "util/union_find.h"

namespace fgp {
namespace {

// Dimensions that exercise the 4-lane main loop, the 1/2/3-element tail,
// and the d < kLanes degenerate cases.
const std::vector<std::size_t> kDims = {1, 2, 3, 4, 5, 7, 8, 11, 16, 33};

std::vector<double> random_vec(util::Rng& rng, std::size_t n, double lo = -3.0,
                               double hi = 3.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

double naive_squared_distance(const double* a, const double* b,
                              std::size_t d) {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff = a[j] - b[j];
    acc += diff * diff;
  }
  return acc;
}

double naive_weighted_squared_distance(const double* x, const double* mu,
                                       const double* w, std::size_t d) {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff = x[j] - mu[j];
    acc += diff * diff * w[j];
  }
  return acc;
}

double naive_dot(const double* a, const double* b, std::size_t d) {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

void expect_rel_near(double expected, double actual, double rel,
                     const std::string& what) {
  const double scale = std::max({1.0, std::abs(expected), std::abs(actual)});
  EXPECT_NEAR(expected, actual, rel * scale) << what;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One k-means pass over `points` against row-major `centers`, the naive
/// scalar way: serial-order distances, a strict-less argmin over centres
/// in index order (the first minimum wins, a NaN distance never does),
/// and serial accumulation in point order.
apps::KMeansObject naive_kmeans_pass(const std::vector<double>& points,
                                     const std::vector<double>& centers,
                                     std::size_t k, std::size_t d) {
  apps::KMeansObject out(static_cast<int>(k), static_cast<int>(d));
  for (std::size_t p = 0; p < points.size() / d; ++p) {
    const double* x = points.data() + p * d;
    double best = std::numeric_limits<double>::max();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double dist = naive_squared_distance(x, centers.data() + c * d, d);
      if (dist < best) {
        best = dist;
        best_c = c;
      }
    }
    for (std::size_t j = 0; j < d; ++j) out.sums_[best_c * d + j] += x[j];
    out.counts_[best_c] += 1;
    out.sse += best;
  }
  return out;
}

/// Runs util::simd::squared_distance_4x4 as compiled here, at the
/// baseline ISA, over every full tile of points and block of centres, and
/// requires each lane to equal the naive distance bit for bit. On an AVX2
/// host the kernel itself takes its AVX2 build, so this is what checks
/// the baseline one there.
void expect_tile_helper_bit_equal(const std::vector<double>& points,
                                  const std::vector<double>& centers,
                                  std::size_t k, std::size_t d,
                                  const std::string& what) {
  const auto blocks = util::simd::pack_center_blocks(centers.data(), k, d);
  for (std::size_t p = 0; p + 4 <= points.size() / d; p += 4)
    for (std::size_t b = 0; b < k / 4; ++b) {
      util::simd::f64x4 out[4];
      util::simd::squared_distance_4x4(points.data() + p * d,
                                       blocks.data() + b * 4 * d, d, out);
      for (std::size_t t = 0; t < 4; ++t)
        for (std::size_t l = 0; l < 4; ++l)
          EXPECT_TRUE(bit_equal(
              out[t][l],
              naive_squared_distance(points.data() + (p + t) * d,
                                     centers.data() + (4 * b + l) * d, d)))
              << what << ": point " << p + t << ", centre " << 4 * b + l;
    }
}

/// Runs KMeansKernel::process_chunk over `points` and requires sums,
/// counts and sse to equal the naive pass bit for bit; the tile helper
/// must match too.
apps::KMeansObject expect_kmeans_chunk_bit_equal(
    const std::vector<double>& points, const std::vector<double>& centers,
    std::size_t k, std::size_t d, const std::string& what) {
  apps::KMeansParams params;
  params.k = static_cast<int>(k);
  params.dim = static_cast<int>(d);
  params.initial_centers = centers;
  const apps::KMeansKernel kernel(params);
  auto obj = kernel.create_object();
  kernel.process_chunk(repository::make_chunk(0, points), *obj);
  const auto& fast = dynamic_cast<const apps::KMeansObject&>(*obj);

  const apps::KMeansObject naive = naive_kmeans_pass(points, centers, k, d);
  EXPECT_EQ(fast.counts_, naive.counts_) << what;
  EXPECT_TRUE(bit_equal(fast.sums_, naive.sums_)) << what;
  EXPECT_TRUE(bit_equal(fast.sse, naive.sse))
      << what << ": sse " << fast.sse << " vs " << naive.sse;
  expect_tile_helper_bit_equal(points, centers, k, d, what);
  return fast;
}

// Seed scalar sweeps for the two integer-valued kernels: per-cell view
// lookups and dense loops, with no hoisted rows or 8-byte skips. Each
// returns the marked-cell total and the structure count, which the fast
// kernels must reproduce exactly.
struct SweepSummary {
  std::uint64_t marked_cells = 0;
  std::size_t structures = 0;
};

double naive_vorticity(const datagen::FieldChunkView& view, std::uint32_t gy,
                       std::uint32_t gx) {
  const double dvdx = 0.5 * (view.at(gy, gx + 1).v - view.at(gy, gx - 1).v);
  const double dudy = 0.5 * (view.at(gy + 1, gx).u - view.at(gy - 1, gx).u);
  return dvdx - dudy;
}

SweepSummary naive_vortex_sweep(const repository::ChunkedDataset& ds,
                                const apps::VortexParams& params) {
  SweepSummary out;
  for (const auto& chunk : ds.chunks()) {
    const auto view = datagen::parse_field_chunk(chunk);
    const auto& h = view.header;
    const std::uint32_t W = h.width;
    std::vector<std::int8_t> mark(static_cast<std::size_t>(h.rows) * W, 0);
    for (std::uint32_t row = 0; row < h.rows; ++row) {
      const std::uint32_t gy = h.row0 + row;
      if (gy == 0 || gy + 1 >= h.height) continue;
      for (std::uint32_t gx = 1; gx + 1 < W; ++gx) {
        const double w = naive_vorticity(view, gy, gx);
        if (w > params.vorticity_threshold)
          mark[static_cast<std::size_t>(row) * W + gx] = 1;
        else if (w < -params.vorticity_threshold)
          mark[static_cast<std::size_t>(row) * W + gx] = -1;
      }
    }
    util::UnionFind uf(static_cast<std::size_t>(h.rows) * W);
    for (std::uint32_t row = 0; row < h.rows; ++row) {
      for (std::uint32_t x = 0; x < W; ++x) {
        const std::size_t idx = static_cast<std::size_t>(row) * W + x;
        if (mark[idx] == 0) continue;
        if (x + 1 < W && mark[idx + 1] == mark[idx]) uf.unite(idx, idx + 1);
        if (row + 1 < h.rows && mark[idx + W] == mark[idx])
          uf.unite(idx, idx + W);
      }
    }
    std::unordered_map<std::size_t, std::size_t> roots;
    for (std::size_t idx = 0; idx < mark.size(); ++idx) {
      if (mark[idx] == 0) continue;
      roots.try_emplace(uf.find(idx), roots.size());
      out.marked_cells += 1;
    }
    out.structures += roots.size();
  }
  return out;
}

SweepSummary naive_defect_sweep(const repository::ChunkedDataset& ds) {
  constexpr std::uint8_t kNoDefect = 0xFF;
  SweepSummary out;
  for (const auto& chunk : ds.chunks()) {
    const auto view = datagen::parse_lattice_chunk(chunk);
    const auto& h = view.header;
    const std::size_t nx = h.nx, ny = h.ny, nz = h.zslabs;
    const std::size_t cells = nx * ny * nz;
    std::vector<std::uint16_t> occupancy(cells, 0);
    std::vector<std::uint8_t> displaced(cells, 0);
    const double tol2 = static_cast<double>(h.displacement_tol) *
                        static_cast<double>(h.displacement_tol);
    for (const auto& a : view.atoms) {
      const auto ix = static_cast<std::int64_t>(std::lround(a.x));
      const auto iy = static_cast<std::int64_t>(std::lround(a.y));
      const auto iz = static_cast<std::int64_t>(std::lround(a.z));
      const std::size_t i =
          ((static_cast<std::size_t>(iz - h.z0) * ny + iy) * nx) + ix;
      occupancy[i] += 1;
      const double dx = a.x - static_cast<double>(ix);
      const double dy = a.y - static_cast<double>(iy);
      const double dz = a.z - static_cast<double>(iz);
      if (dx * dx + dy * dy + dz * dz > tol2) displaced[i] = 1;
    }
    std::vector<std::uint8_t> kind_of(cells, kNoDefect);
    for (std::size_t i = 0; i < cells; ++i) {
      if (occupancy[i] == 0)
        kind_of[i] = static_cast<std::uint8_t>(datagen::DefectKind::Vacancy);
      else if (occupancy[i] >= 2)
        kind_of[i] =
            static_cast<std::uint8_t>(datagen::DefectKind::Interstitial);
      else if (displaced[i])
        kind_of[i] = static_cast<std::uint8_t>(datagen::DefectKind::Displaced);
    }
    const auto idx_of = [&](std::size_t x, std::size_t y, std::size_t z) {
      return (z * ny + y) * nx + x;
    };
    util::UnionFind uf(cells);
    for (std::size_t z = 0; z < nz; ++z)
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t x = 0; x < nx; ++x) {
          const std::size_t i = idx_of(x, y, z);
          if (kind_of[i] == kNoDefect) continue;
          if (x + 1 < nx && kind_of[idx_of(x + 1, y, z)] == kind_of[i])
            uf.unite(i, idx_of(x + 1, y, z));
          if (y + 1 < ny && kind_of[idx_of(x, y + 1, z)] == kind_of[i])
            uf.unite(i, idx_of(x, y + 1, z));
          if (z + 1 < nz && kind_of[idx_of(x, y, z + 1)] == kind_of[i])
            uf.unite(i, idx_of(x, y, z + 1));
        }
    std::unordered_map<std::size_t, std::size_t> roots;
    for (std::size_t i = 0; i < cells; ++i) {
      if (kind_of[i] == kNoDefect) continue;
      roots.try_emplace(uf.find(i), roots.size());
      out.marked_cells += 1;
    }
    out.structures += roots.size();
  }
  return out;
}

// ------------------------------------------------------------- simd layer

TEST(SimdEquivalence, WeightedSquaredDistanceMatchesNaive) {
  util::Rng rng(102);
  for (std::size_t d : kDims) {
    const auto x = random_vec(rng, d);
    const auto mu = random_vec(rng, d);
    const auto w = random_vec(rng, d, 0.1, 4.0);
    expect_rel_near(
        naive_weighted_squared_distance(x.data(), mu.data(), w.data(), d),
        util::simd::weighted_squared_distance(x.data(), mu.data(), w.data(),
                                              d),
        1e-13, "d=" + std::to_string(d));
  }
}

TEST(SimdEquivalence, DotMatchesNaive) {
  util::Rng rng(103);
  for (std::size_t d : kDims) {
    const auto a = random_vec(rng, d);
    const auto b = random_vec(rng, d);
    expect_rel_near(naive_dot(a.data(), b.data(), d),
                    util::simd::dot(a.data(), b.data(), d), 1e-13,
                    "d=" + std::to_string(d));
  }
}

TEST(SimdEquivalence, ElementwiseHelpersMatchNaiveExactly) {
  util::Rng rng(104);
  for (std::size_t d : kDims) {
    const auto x = random_vec(rng, d);
    const double r = rng.uniform(0.0, 1.0);

    auto acc = random_vec(rng, d);
    auto acc_ref = acc;
    util::simd::accumulate(acc.data(), x.data(), d);
    for (std::size_t j = 0; j < d; ++j) acc_ref[j] += x[j];
    EXPECT_EQ(acc, acc_ref);  // one add per slot: bit-exact

    auto y = random_vec(rng, d);
    auto y_ref = y;
    util::simd::axpy(y.data(), r, x.data(), d);
    for (std::size_t j = 0; j < d; ++j) y_ref[j] += r * x[j];
    EXPECT_EQ(y, y_ref);

    auto sx = random_vec(rng, d);
    auto sx2 = random_vec(rng, d);
    auto sx_ref = sx;
    auto sx2_ref = sx2;
    util::simd::weighted_moments(sx.data(), sx2.data(), r, x.data(), d);
    for (std::size_t j = 0; j < d; ++j) {
      const double rx = r * x[j];
      sx_ref[j] += rx;
      sx2_ref[j] += rx * x[j];
    }
    EXPECT_EQ(sx, sx_ref);
    EXPECT_EQ(sx2, sx2_ref);
  }
}

TEST(SimdEquivalence, ReductionsBitIdenticalAcrossRepeatRuns) {
  // The lane-blocked helpers reassociate their sums, but in a fixed order:
  // repeat calls on the same input give the same bits.
  util::Rng rng(105);
  for (std::size_t d : kDims) {
    const auto a = random_vec(rng, d);
    const auto b = random_vec(rng, d);
    const auto w = random_vec(rng, d, 0.1, 4.0);
    const double dot = util::simd::dot(a.data(), b.data(), d);
    const double wsd =
        util::simd::weighted_squared_distance(a.data(), b.data(), w.data(), d);
    for (int rep = 0; rep < 3; ++rep) {
      const double dot_again = util::simd::dot(a.data(), b.data(), d);
      const double wsd_again = util::simd::weighted_squared_distance(
          a.data(), b.data(), w.data(), d);
      EXPECT_EQ(0, std::memcmp(&dot, &dot_again, sizeof(double)));
      EXPECT_EQ(0, std::memcmp(&wsd, &wsd_again, sizeof(double)));
    }
  }
}

TEST(SimdEquivalence, AllBytesEqual8MatchesScalarSweep) {
  util::Rng rng(106);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t buf[8];
    const std::uint8_t fill = (trial % 2 == 0) ? 0 : 0xFF;
    for (auto& x : buf)
      x = rng.next_below(4) == 0 ? static_cast<std::uint8_t>(rng.next_below(256))
                                 : fill;
    bool naive = true;
    for (std::uint8_t x : buf) naive = naive && (x == fill);
    EXPECT_EQ(naive, util::simd::all_bytes_equal8(buf, fill));
  }
}

// ------------------------------------------------------------ app kernels

TEST(KernelEquivalence, KMeansChunkMatchesNaiveScalar) {
  util::Rng rng(201);
  const std::size_t d = 5;  // not a multiple of the block width
  const std::size_t k = 3;
  const std::size_t count = 101;  // odd
  const auto points = random_vec(rng, count * d, -8.0, 8.0);
  const std::vector<double> centers(points.begin(), points.begin() + k * d);
  expect_kmeans_chunk_bit_equal(points, centers, k, d, "k=3 d=5");

  // Repeat run into a fresh object: bit-identical serialized bytes.
  apps::KMeansParams params;
  params.k = static_cast<int>(k);
  params.dim = static_cast<int>(d);
  params.initial_centers = centers;
  apps::KMeansKernel kernel(params);
  const auto chunk = repository::make_chunk(0, points);
  auto obj = kernel.create_object();
  kernel.process_chunk(chunk, *obj);
  auto obj2 = kernel.create_object();
  kernel.process_chunk(chunk, *obj2);
  util::ByteWriter w1, w2;
  obj->serialize(w1);
  obj2->serialize(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(KernelEquivalence, KMeansChunkBitEqualsNaiveScalar) {
  // Every way the kernel can split its work: k below, at and past one
  // block of four centres, with and without a remainder; point counts
  // below, at and past one four-point tile; and kDims' lane tails.
  util::Rng rng(206);
  for (const std::size_t k : {1, 3, 4, 5, 8, 9, 16})
    for (const std::size_t d : kDims)
      for (const std::size_t count : {1, 3, 4, 5, 101}) {
        const auto points = random_vec(rng, count * d, -8.0, 8.0);
        const auto centers = random_vec(rng, k * d, -8.0, 8.0);
        expect_kmeans_chunk_bit_equal(
            points, centers, k, d,
            "k=" + std::to_string(k) + " d=" + std::to_string(d) +
                " count=" + std::to_string(count));
      }

  // Ties: integer coordinates, and centre 6 duplicates centre 1, which
  // point 0 sits on. The lower index must win every tie.
  {
    const std::size_t k = 9, d = 3, count = 101;
    std::vector<double> points(count * d), centers(k * d);
    for (auto& x : points) x = static_cast<double>(rng.next_below(5)) - 2.0;
    for (auto& x : centers) x = static_cast<double>(rng.next_below(5)) - 2.0;
    std::copy_n(centers.begin() + 1 * d, d, centers.begin() + 6 * d);
    std::copy_n(centers.begin() + 1 * d, d, points.begin());
    const auto fast =
        expect_kmeans_chunk_bit_equal(points, centers, k, d, "ties");
    EXPECT_GT(fast.counts_[1], 0u);
    EXPECT_EQ(fast.counts_[6], 0u);
  }

  // A NaN coordinate makes every distance NaN, and a NaN never wins: the
  // point joins cluster 0 and adds DBL_MAX to sse.
  {
    const std::size_t k = 5, d = 4, count = 9;
    auto points = random_vec(rng, count * d, -8.0, 8.0);
    const auto centers = random_vec(rng, k * d, -8.0, 8.0);
    points[6 * d + 2] = std::numeric_limits<double>::quiet_NaN();
    const auto fast =
        expect_kmeans_chunk_bit_equal(points, centers, k, d, "NaN row");
    EXPECT_GT(fast.counts_[0], 0u);
    EXPECT_TRUE(std::isnan(fast.sums_[2]));
    EXPECT_EQ(fast.sse, std::numeric_limits<double>::max());
  }
}

TEST(KernelEquivalence, KnnChunkMatchesNaiveScalar) {
  util::Rng rng(202);
  const std::size_t d = 3;  // smaller than the block width
  const int k = 4;
  const std::size_t m = 2;
  const std::size_t count = 51;
  const auto points = random_vec(rng, count * d, -5.0, 5.0);

  apps::KnnParams params;
  params.k = k;
  params.dim = static_cast<int>(d);
  params.queries = random_vec(rng, m * d, -5.0, 5.0);
  apps::KnnKernel kernel(params);
  const auto chunk = repository::make_chunk(0, points);

  auto obj = kernel.create_object();
  kernel.process_chunk(chunk, *obj);
  const auto& fast = dynamic_cast<const apps::KnnObject&>(*obj);

  // Naive scalar: serial distances into a separate object via the same
  // bounded insert.
  apps::KnnObject naive(static_cast<int>(m), k, static_cast<int>(d));
  for (std::size_t p = 0; p < count; ++p) {
    const double* x = points.data() + p * d;
    for (std::size_t q = 0; q < m; ++q)
      naive.insert(q,
                   naive_squared_distance(x, params.queries.data() + q * d, d),
                   x);
  }

  EXPECT_TRUE(bit_equal(fast.dists, naive.dists));
  EXPECT_EQ(fast.coords, naive.coords);  // same neighbour selection

  auto obj2 = kernel.create_object();
  kernel.process_chunk(chunk, *obj2);
  util::ByteWriter w1, w2;
  obj->serialize(w1);
  obj2->serialize(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(KernelEquivalence, EmChunkMatchesNaiveScalar) {
  util::Rng rng(203);
  const std::size_t d = 5;
  const std::size_t g = 3;
  const std::size_t count = 61;
  const auto points = random_vec(rng, count * d, -4.0, 4.0);

  apps::EMParams params;
  params.g = static_cast<int>(g);
  params.dim = static_cast<int>(d);
  params.initial_means = random_vec(rng, g * d, -4.0, 4.0);
  params.initial_variance = 1.5;
  apps::EMKernel kernel(params);
  const auto chunk = repository::make_chunk(7, points);

  auto obj = kernel.create_object();
  kernel.process_chunk(chunk, *obj);
  const auto& fast = dynamic_cast<const apps::EMObject&>(*obj);

  // Naive scalar E-step: per-coordinate divisions, log-normalizer computed
  // per point (the pre-hoisted formulation).
  const double kLog2Pi = 1.8378770664093453;
  std::vector<double> resp(g, 0.0), sum_x(g * d, 0.0), sum_x2(g * d, 0.0);
  std::vector<double> logp(g);
  std::vector<std::uint8_t> labels(count);
  double loglik = 0.0;
  for (std::size_t p = 0; p < count; ++p) {
    const double* x = points.data() + p * d;
    for (std::size_t c = 0; c < g; ++c) {
      double quad = 0.0, logdet = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = x[j] - params.initial_means[c * d + j];
        quad += diff * diff / params.initial_variance;
        logdet += std::log(params.initial_variance);
      }
      logp[c] = std::log(1.0 / static_cast<double>(g)) -
                0.5 * (quad + logdet + static_cast<double>(d) * kLog2Pi);
    }
    double mx = logp[0];
    for (std::size_t c = 1; c < g; ++c) mx = std::max(mx, logp[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < g; ++c) sum += std::exp(logp[c] - mx);
    const double lse = mx + std::log(sum);
    loglik += lse;
    std::size_t best = 0;
    for (std::size_t c = 0; c < g; ++c) {
      const double r = std::exp(logp[c] - lse);
      resp[c] += r;
      for (std::size_t j = 0; j < d; ++j) {
        sum_x[c * d + j] += r * x[j];
        sum_x2[c * d + j] += r * x[j] * x[j];
      }
      if (logp[c] > logp[best]) best = c;
    }
    labels[p] = static_cast<std::uint8_t>(best);
  }

  expect_rel_near(loglik, fast.loglik, 1e-9, "loglik");
  for (std::size_t c = 0; c < g; ++c)
    expect_rel_near(resp[c], fast.resp[c], 1e-9,
                    "resp[" + std::to_string(c) + "]");
  for (std::size_t i = 0; i < sum_x.size(); ++i) {
    expect_rel_near(sum_x[i], fast.sum_x[i], 1e-9,
                    "sum_x[" + std::to_string(i) + "]");
    expect_rel_near(sum_x2[i], fast.sum_x2[i], 1e-9,
                    "sum_x2[" + std::to_string(i) + "]");
  }
  ASSERT_TRUE(fast.labels.count(7));
  EXPECT_EQ(fast.labels.at(7), labels);

  auto obj2 = kernel.create_object();
  kernel.process_chunk(chunk, *obj2);
  util::ByteWriter w1, w2;
  obj->serialize(w1);
  obj2->serialize(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(KernelEquivalence, AnnChunkMatchesNaiveScalar) {
  util::Rng data_rng(204);
  const int dim = 5, hidden = 7, classes = 3;
  const std::size_t count = 41;
  const std::size_t row = static_cast<std::size_t>(dim) + 1;
  std::vector<double> rows(count * row);
  for (std::size_t p = 0; p < count; ++p) {
    rows[p * row] = static_cast<double>(data_rng.next_below(classes));
    for (std::size_t j = 1; j < row; ++j)
      rows[p * row + j] = data_rng.uniform(-2.0, 2.0);
  }

  apps::AnnParams params;
  params.dim = dim;
  params.hidden = hidden;
  params.classes = classes;
  params.seed = 5;
  apps::AnnKernel kernel(params);
  const auto chunk = repository::make_chunk(0, rows);

  auto obj = kernel.create_object();
  kernel.process_chunk(chunk, *obj);
  const auto& fast = dynamic_cast<const apps::AnnObject&>(*obj);

  // Replicate the kernel's weight init (same seed, same draw order), then
  // run the naive strided forward/backward the blocked version replaced.
  const auto d = static_cast<std::size_t>(dim);
  const auto h = static_cast<std::size_t>(hidden);
  const auto cc = static_cast<std::size_t>(classes);
  util::Rng wrng(params.seed);
  std::vector<double> w1(d * h), b1(h, 0.0), w2(h * cc), b2(cc, 0.0);
  const double s1 = 1.0 / std::sqrt(static_cast<double>(d));
  const double s2 = 1.0 / std::sqrt(static_cast<double>(h));
  for (auto& w : w1) w = wrng.uniform(-s1, s1);
  for (auto& w : w2) w = wrng.uniform(-s2, s2);

  std::vector<double> grad_w1(d * h, 0.0), grad_b1(h, 0.0);
  std::vector<double> grad_w2(h * cc, 0.0), grad_b2(cc, 0.0);
  double loss = 0.0;
  for (std::size_t p = 0; p < count; ++p) {
    const double* r = rows.data() + p * row;
    const double* x = r + 1;
    const auto label = static_cast<std::size_t>(r[0]);

    std::vector<double> a1(h), prob(cc);
    for (std::size_t k = 0; k < h; ++k) {
      double z = b1[k];
      for (std::size_t j = 0; j < d; ++j) z += w1[j * h + k] * x[j];
      a1[k] = std::tanh(z);
    }
    double zmax = -1e300;
    for (std::size_t c = 0; c < cc; ++c) {
      double z = b2[c];
      for (std::size_t k = 0; k < h; ++k) z += w2[k * cc + c] * a1[k];
      prob[c] = z;
      zmax = std::max(zmax, z);
    }
    double sum = 0.0;
    for (std::size_t c = 0; c < cc; ++c) {
      prob[c] = std::exp(prob[c] - zmax);
      sum += prob[c];
    }
    for (std::size_t c = 0; c < cc; ++c) prob[c] /= sum;
    loss += -std::log(std::max(prob[label], 1e-300));

    std::vector<double> dz2(cc), dz1(h);
    for (std::size_t c = 0; c < cc; ++c)
      dz2[c] = prob[c] - (c == label ? 1.0 : 0.0);
    for (std::size_t k = 0; k < h; ++k)
      for (std::size_t c = 0; c < cc; ++c)
        grad_w2[k * cc + c] += a1[k] * dz2[c];
    for (std::size_t c = 0; c < cc; ++c) grad_b2[c] += dz2[c];
    for (std::size_t k = 0; k < h; ++k) {
      double da = 0.0;
      for (std::size_t c = 0; c < cc; ++c) da += w2[k * cc + c] * dz2[c];
      dz1[k] = da * (1.0 - a1[k] * a1[k]);
    }
    for (std::size_t j = 0; j < d; ++j)
      for (std::size_t k = 0; k < h; ++k)
        grad_w1[j * h + k] += x[j] * dz1[k];
    for (std::size_t k = 0; k < h; ++k) grad_b1[k] += dz1[k];
  }

  expect_rel_near(loss, fast.loss, 1e-10, "loss");
  for (std::size_t i = 0; i < grad_w1.size(); ++i)
    expect_rel_near(grad_w1[i], fast.grad_w1[i], 1e-10,
                    "grad_w1[" + std::to_string(i) + "]");
  for (std::size_t i = 0; i < grad_b1.size(); ++i)
    expect_rel_near(grad_b1[i], fast.grad_b1[i], 1e-10,
                    "grad_b1[" + std::to_string(i) + "]");
  for (std::size_t i = 0; i < grad_w2.size(); ++i)
    expect_rel_near(grad_w2[i], fast.grad_w2[i], 1e-10,
                    "grad_w2[" + std::to_string(i) + "]");
  for (std::size_t i = 0; i < grad_b2.size(); ++i)
    expect_rel_near(grad_b2[i], fast.grad_b2[i], 1e-10,
                    "grad_b2[" + std::to_string(i) + "]");

  auto obj2 = kernel.create_object();
  kernel.process_chunk(chunk, *obj2);
  util::ByteWriter wa, wb;
  obj->serialize(wa);
  obj2->serialize(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(KernelEquivalence, VortexChunkMatchesNaiveScalar) {
  // A 192x192 flow field with six planted vortices: the hoisted-row
  // stencil and the 8-cell empty-group skips must mark exactly the cells
  // the per-cell seed loop marks, in exactly as many fragments.
  datagen::FlowSpec spec;
  spec.width = 192;
  spec.height = 192;
  spec.rows_per_chunk = 32;
  spec.num_vortices = 6;
  spec.seed = 41;
  const auto data = datagen::generate_flowfield(spec);
  const apps::VortexParams params;
  const SweepSummary naive = naive_vortex_sweep(data.dataset, params);

  apps::VortexKernel kernel(params);
  auto obj = kernel.create_object();
  for (const auto& chunk : data.dataset.chunks())
    kernel.process_chunk(chunk, *obj);
  const auto& fast = dynamic_cast<const apps::VortexObject&>(*obj);
  std::uint64_t marked = 0;
  for (const auto& f : fast.fragments) marked += f.cells;

  ASSERT_GT(naive.marked_cells, 0u);
  EXPECT_EQ(marked, naive.marked_cells);
  EXPECT_EQ(fast.fragments.size(), naive.structures);
}

TEST(KernelEquivalence, DefectChunkMatchesNaiveScalar) {
  // A 40^3 silicon lattice: lrint site rounding and the 8-byte slab skips
  // must find exactly the defect cells and structures of the seed loop.
  datagen::LatticeSpec spec;
  spec.nx = 40;
  spec.ny = 40;
  spec.nz = 40;
  spec.zslabs_per_chunk = 12;
  spec.seed = 47;
  const auto data = datagen::generate_lattice(spec);
  const SweepSummary naive = naive_defect_sweep(data.dataset);

  apps::DefectKernel kernel;
  auto obj = kernel.create_object();
  for (const auto& chunk : data.dataset.chunks())
    kernel.process_chunk(chunk, *obj);
  const auto& fast = dynamic_cast<const apps::DefectObject&>(*obj);
  std::uint64_t marked = 0;
  for (const auto& st : fast.structures) marked += st.cells.size() / 3;

  ASSERT_GT(naive.structures, 0u);
  EXPECT_EQ(marked, naive.marked_cells);
  EXPECT_EQ(fast.structures.size(), naive.structures);
}

TEST(KernelEquivalence, StreamedWindowChunkBitIdenticalToHeapChunk) {
  // A kernel must not care where the payload bytes live: processing a
  // chunk whose payload borrows a streamed mmap window produces serialized
  // results byte-identical to the same chunk held in heap memory
  // (DESIGN.md §13, §15 — the data plane is ownership-transparent).
  util::Rng rng(205);
  const std::size_t d = 5, k = 3, count = 101;
  const auto points = random_vec(rng, count * d, -8.0, 8.0);

  apps::KMeansParams params;
  params.k = static_cast<int>(k);
  params.dim = static_cast<int>(d);
  params.initial_centers.assign(points.begin(), points.begin() + k * d);
  apps::KMeansKernel kernel(params);

  repository::ChunkedDataset ds(repository::DatasetMeta{"mmapeq", "f64", 0});
  ds.add_chunk(repository::make_chunk(0, points));
  const auto root =
      std::filesystem::temp_directory_path() / "fgp_kernel_eq_store";
  std::filesystem::remove_all(root);
  repository::DatasetStore store(root);
  store.save(ds);
  const auto streamed = store.load_streamed("mmapeq");
  ASSERT_EQ(streamed.chunk_count(), 1u);
  const repository::Chunk window_chunk = streamed.materialize(0);
  if (repository::PayloadBuffer::mmap_supported()) {
    // One 4 KB payload fits one window: a borrowed view, not a heap copy.
    EXPECT_TRUE(window_chunk.payload_buffer()->borrowed());
  }

  auto heap_obj = kernel.create_object();
  kernel.process_chunk(ds.chunk(0), *heap_obj);
  auto window_obj = kernel.create_object();
  kernel.process_chunk(window_chunk, *window_obj);

  util::ByteWriter heap_bytes, window_bytes;
  heap_obj->serialize(heap_bytes);
  window_obj->serialize(window_bytes);
  EXPECT_EQ(heap_bytes.bytes(), window_bytes.bytes());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace fgp
