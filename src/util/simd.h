// simd.h — fixed-width register-blocked reduction primitives.
//
// The compute kernels in src/apps/ spend almost all of their time in small
// dense loops (distance evaluations, weighted accumulations, stencils).
// These helpers restructure those loops into kLanes independent
// accumulators so the compiler can keep them in vector registers — no
// intrinsics: plain scalars, or GCC/Clang vector-extension values
// (f64x4) whose element-wise operators are per-lane IEEE arithmetic.
//
// Determinism contract (DESIGN "Blocked-reduction determinism"): the
// floating-point accumulation order of every helper is a pure function of
// the element count. Lane-blocked reductions (dot, weighted_squared_distance)
// give lane j elements j, j+kLanes, j+2*kLanes,…; the tail (count % kLanes
// elements) is folded into the lanes in index order; lanes combine as
// (l0 + l1) + (l2 + l3). The tiled distance helpers (squared_distance_x4,
// squared_distance_4x4) instead keep each (point, centre) accumulation
// strictly serial in coordinate order — identical bits to a plain scalar
// loop — and draw their parallelism from independent chains: four points,
// and four centres per vector lane. Nothing here may ever depend on thread
// count, chunk partitioning, pool size or the ISA a caller is compiled
// for — that is what keeps tests/test_determinism.cpp bit-identical at
// pool sizes 1/2/8. Reference implementations that tests compare
// bit-exactly against the kernels (e.g. knn_reference) must use the helper
// with the same per-point order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace fgp::util::simd {

/// Four doubles as one GCC/Clang vector-extension value: one AVX register,
/// two SSE2 registers on baseline x86-64. Loads and stores go through
/// std::memcpy, so the data needs only double alignment.
typedef double f64x4 __attribute__((vector_size(32)));

/// Register-blocking width. Four 64-bit lanes fill one AVX2 register; on
/// narrower ISAs the compiler splits them into two 128-bit operations,
/// which still beats a serial dependency chain.
inline constexpr std::size_t kLanes = 4;

/// Combines the four lane accumulators in the fixed contract order.
inline double combine(double l0, double l1, double l2, double l3) {
  return (l0 + l1) + (l2 + l3);
}

/// Serial-order squared distance: one accumulator, coordinates in index
/// order — the exact bits of the pre-blocking scalar loop. This is the
/// per-point order of the tiled distance kernels and their references.
inline double squared_distance_serial(const double* a, const double* b,
                                      std::size_t d) {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff = a[j] - b[j];
    acc += diff * diff;
  }
  return acc;
}

/// Point tile width for the distance kernels: four points share one centre
/// row per sweep, so the centre streams from L1 once per tile and the four
/// serial accumulation chains run in parallel.
inline constexpr std::size_t kPointTile = 4;

/// Squared distances of four points (rows of `x`, `stride` doubles apart;
/// stride == d for dense point arrays, d+1 for labeled rows) from one
/// centre `c`. Each out[t] carries the serial coordinate order — bit-equal
/// to squared_distance_serial(x + t*stride, c, d) — while the four
/// independent chains give the ILP a single chain cannot.
inline void squared_distance_x4(const double* x, std::size_t stride,
                                const double* c, std::size_t d,
                                double out[4]) {
  const double* x0 = x;
  const double* x1 = x + stride;
  const double* x2 = x + 2 * stride;
  const double* x3 = x + 3 * stride;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double cj = c[j];
    const double d0 = x0[j] - cj;
    const double d1 = x1[j] - cj;
    const double d2 = x2[j] - cj;
    const double d3 = x3[j] - cj;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

/// Centre block width of squared_distance_4x4: one f64x4 lane per centre.
inline constexpr std::size_t kCenterBlock = 4;

/// Regroups the first n - n % 4 rows of a row-major [n x d] matrix four at
/// a time, coordinate-major: row 4b+l's coordinate j lands at
/// [(b*d + j)*4 + l], the block layout squared_distance_4x4 reads. The
/// last n % 4 rows are left out.
inline std::vector<double> pack_center_blocks(const double* rows,
                                              std::size_t n, std::size_t d) {
  const std::size_t full = n - n % kCenterBlock;
  std::vector<double> blocks(full * d);
  for (std::size_t c = 0; c < full; ++c)
    for (std::size_t j = 0; j < d; ++j)
      blocks[((c / kCenterBlock) * d + j) * kCenterBlock + c % kCenterBlock] =
          rows[c * d + j];
  return blocks;
}

/// Squared distances of four points (consecutive rows of `x`) from one
/// block of four centres in the pack_center_blocks layout: lane l of
/// out[t] is point t's distance from the block's centre l, accumulated in
/// coordinate order — bit-equal to squared_distance_serial(x + t*d,
/// centre l, d). Always inlined, so a caller compiled for a wider ISA runs
/// it at that ISA.
[[gnu::always_inline]] inline void squared_distance_4x4(const double* x,
                                                        const double* block,
                                                        std::size_t d,
                                                        f64x4 out[4]) {
  const double* x0 = x;
  const double* x1 = x + d;
  const double* x2 = x + 2 * d;
  const double* x3 = x + 3 * d;
  f64x4 a0 = {}, a1 = {}, a2 = {}, a3 = {};
  for (std::size_t j = 0; j < d; ++j, block += kCenterBlock) {
    f64x4 c;
    std::memcpy(&c, block, sizeof(c));
    const f64x4 d0 = x0[j] - c;
    const f64x4 d1 = x1[j] - c;
    const f64x4 d2 = x2[j] - c;
    const f64x4 d3 = x3[j] - c;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

/// Blocked weighted quadratic form: sum_j (x[j]-mu[j])^2 * w[j]. Used by
/// the EM E-step with w = 1/var (precomputed per pass).
inline double weighted_squared_distance(const double* x, const double* mu,
                                        const double* w, std::size_t d) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    const double d0 = x[j] - mu[j];
    const double d1 = x[j + 1] - mu[j + 1];
    const double d2 = x[j + 2] - mu[j + 2];
    const double d3 = x[j + 3] - mu[j + 3];
    l0 += d0 * d0 * w[j];
    l1 += d1 * d1 * w[j + 1];
    l2 += d2 * d2 * w[j + 2];
    l3 += d3 * d3 * w[j + 3];
  }
  switch (d - j) {
    case 3: {
      const double d2t = x[j + 2] - mu[j + 2];
      l2 += d2t * d2t * w[j + 2];
      [[fallthrough]];
    }
    case 2: {
      const double d1t = x[j + 1] - mu[j + 1];
      l1 += d1t * d1t * w[j + 1];
      [[fallthrough]];
    }
    case 1: {
      const double d0t = x[j] - mu[j];
      l0 += d0t * d0t * w[j];
      break;
    }
    default:
      break;
  }
  return combine(l0, l1, l2, l3);
}

/// Blocked dot product sum_j a[j] * b[j].
inline double dot(const double* a, const double* b, std::size_t d) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    l0 += a[j] * b[j];
    l1 += a[j + 1] * b[j + 1];
    l2 += a[j + 2] * b[j + 2];
    l3 += a[j + 3] * b[j + 3];
  }
  switch (d - j) {
    case 3:
      l2 += a[j + 2] * b[j + 2];
      [[fallthrough]];
    case 2:
      l1 += a[j + 1] * b[j + 1];
      [[fallthrough]];
    case 1:
      l0 += a[j] * b[j];
      break;
    default:
      break;
  }
  return combine(l0, l1, l2, l3);
}

/// Element-wise accumulate acc[j] += x[j], four slots per f64x4 add.
/// Order-free (one FP add per slot), so the bits equal a plain loop's.
/// `acc` and `x` must not overlap. Always inlined, like
/// squared_distance_4x4.
[[gnu::always_inline]] inline void accumulate(double* acc, const double* x,
                                              std::size_t d) {
  std::size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    f64x4 a, b;
    std::memcpy(&a, acc + j, sizeof(a));
    std::memcpy(&b, x + j, sizeof(b));
    a += b;
    std::memcpy(acc + j, &a, sizeof(a));
  }
  for (; j < d; ++j) acc[j] += x[j];
}

/// Element-wise y[j] += a * x[j].
inline void axpy(double* y, double a, const double* x, std::size_t d) {
  for (std::size_t j = 0; j < d; ++j) y[j] += a * x[j];
}

/// EM sufficient-statistics update: sx[j] += r*x[j], sx2[j] += r*x[j]*x[j].
/// Both updates stream over x once, each slot independent.
inline void weighted_moments(double* sx, double* sx2, double r,
                             const double* x, std::size_t d) {
  for (std::size_t j = 0; j < d; ++j) {
    const double rx = r * x[j];
    sx[j] += rx;
    sx2[j] += rx * x[j];
  }
}

/// True when the 8 bytes at p are all equal to `fill`. Lets sparse sweeps
/// (union-find over mostly-empty mark/kind arrays) skip empty cell groups
/// with one 64-bit compare instead of eight branchy loads.
inline bool all_bytes_equal8(const void* p, std::uint8_t fill) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v == 0x0101010101010101ull * fill;
}

}  // namespace fgp::util::simd
