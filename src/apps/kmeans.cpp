#include "apps/kmeans.h"

#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/simd.h"

namespace fgp::apps {
namespace {

/// Strict-less argmin step, as selects so it compiles branch-free: over
/// centres in index order the first minimum wins and a NaN never does.
[[gnu::always_inline]] inline void argmin_step(double dist, std::size_t c,
                                               double& best,
                                               std::size_t& best_c) {
  const bool less = dist < best;
  best = less ? dist : best;
  best_c = less ? c : best_c;
}

/// The argmin steps of one centre block's lanes: centres c..c+3 in order.
[[gnu::always_inline]] inline void argmin_block(
    const util::simd::f64x4& dist, std::size_t c, double& best,
    std::size_t& best_c) {
  argmin_step(dist[0], c, best, best_c);
  argmin_step(dist[1], c + 1, best, best_c);
  argmin_step(dist[2], c + 2, best, best_c);
  argmin_step(dist[3], c + 3, best, best_c);
}

/// One chunk's assignment pass: its points, the centres in both layouts,
/// and the reduction object's fields.
struct Assignment {
  const double* x;
  std::size_t count;
  std::size_t d;
  std::size_t k;
  const double* centers;  ///< row-major [k x d]
  const double* blocks;   ///< pack_center_blocks of the first k - k % 4
  double* sums;
  std::uint64_t* counts;
  double* sse;
};

/// Assigns every point to its nearest centre and adds it to sums, counts
/// and sse, in point order. Four-point tiles meet four centres per vector
/// operation (squared_distance_4x4); the last k % 4 centres use
/// squared_distance_x4 and the points past the last tile the serial
/// helper. Every distance keeps the serial coordinate order, so the bits
/// are the same at every ISA this body is compiled for.
[[gnu::always_inline]] inline void assign(const Assignment& a) {
  // Locals, not a's fields: the stores to counts could alias a size_t
  // member, and sse could alias sums.
  const std::size_t d = a.d;
  const std::size_t k = a.k;
  const std::size_t full = k - k % util::simd::kCenterBlock;
  double* sums = a.sums;
  std::uint64_t* counts = a.counts;
  double sse = *a.sse;
  const double* x = a.x;
  constexpr double kInf = std::numeric_limits<double>::max();
  constexpr std::size_t tile = util::simd::kPointTile;
  std::size_t p = 0;
  for (; p + tile <= a.count; p += tile, x += tile * d) {
    // Named scalars, not arrays, so the argmin state stays in registers.
    double best0 = kInf, best1 = kInf, best2 = kInf, best3 = kInf;
    std::size_t bc0 = 0, bc1 = 0, bc2 = 0, bc3 = 0;
    for (std::size_t c = 0; c < full; c += util::simd::kCenterBlock) {
      util::simd::f64x4 dist[tile];
      util::simd::squared_distance_4x4(x, a.blocks + c * d, d, dist);
      argmin_block(dist[0], c, best0, bc0);
      argmin_block(dist[1], c, best1, bc1);
      argmin_block(dist[2], c, best2, bc2);
      argmin_block(dist[3], c, best3, bc3);
    }
    const double* ctr = a.centers + full * d;
    for (std::size_t c = full; c < k; ++c, ctr += d) {
      double dist[tile];
      util::simd::squared_distance_x4(x, d, ctr, d, dist);
      argmin_step(dist[0], c, best0, bc0);
      argmin_step(dist[1], c, best1, bc1);
      argmin_step(dist[2], c, best2, bc2);
      argmin_step(dist[3], c, best3, bc3);
    }
    util::simd::accumulate(sums + bc0 * d, x, d);
    counts[bc0] += 1;
    sse += best0;
    util::simd::accumulate(sums + bc1 * d, x + d, d);
    counts[bc1] += 1;
    sse += best1;
    util::simd::accumulate(sums + bc2 * d, x + 2 * d, d);
    counts[bc2] += 1;
    sse += best2;
    util::simd::accumulate(sums + bc3 * d, x + 3 * d, d);
    counts[bc3] += 1;
    sse += best3;
  }
  for (; p < a.count; ++p, x += d) {
    double best = kInf;
    std::size_t best_c = 0;
    const double* ctr = a.centers;
    for (std::size_t c = 0; c < k; ++c, ctr += d)
      argmin_step(util::simd::squared_distance_serial(x, ctr, d), c, best,
                  best_c);
    util::simd::accumulate(sums + best_c * d, x, d);
    counts[best_c] += 1;
    sse += best;
  }
  *a.sse = sse;
}

// The same body compiled twice, and a plain function pointer chosen once
// per process; DESIGN §10 says why not the compiler's own multiversioning.
void assign_baseline(const Assignment& a) { assign(a); }

#if defined(__x86_64__)
[[gnu::target("avx2")]] void assign_avx2(const Assignment& a) { assign(a); }
#endif

using AssignFn = void (*)(const Assignment&);

AssignFn choose_assign() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // this runs from a static initializer
  if (__builtin_cpu_supports("avx2")) return assign_avx2;
#endif
  return assign_baseline;
}

const AssignFn assign_points = choose_assign();

}  // namespace

void KMeansObject::serialize(util::ByteWriter& w) const {
  w.put_vector(sums_);
  w.put_vector(counts_);
  w.put_f64(sse);
}

void KMeansObject::deserialize(util::ByteReader& r) {
  sums_ = r.get_vector<double>();
  counts_ = r.get_vector<std::uint64_t>();
  sse = r.get_f64();
}

KMeansKernel::KMeansKernel(KMeansParams params) : params_(std::move(params)) {
  FGP_CHECK(params_.k > 0 && params_.dim > 0);
  FGP_CHECK_MSG(params_.initial_centers.size() ==
                    static_cast<std::size_t>(params_.k) * params_.dim,
                "initial_centers must be k x dim");
  centers_ = params_.initial_centers;
  center_blocks_ = util::simd::pack_center_blocks(
      centers_.data(), static_cast<std::size_t>(params_.k),
      static_cast<std::size_t>(params_.dim));
}

std::unique_ptr<freeride::ReductionObject> KMeansKernel::create_object() const {
  return std::make_unique<KMeansObject>(params_.k, params_.dim);
}

sim::Work KMeansKernel::process_chunk(const repository::Chunk& chunk,
                                      freeride::ReductionObject& obj) const {
  auto& o = dynamic_cast<KMeansObject&>(obj);
  const auto points = chunk.as_span<double>();
  const std::size_t d = static_cast<std::size_t>(params_.dim);
  FGP_CHECK_MSG(points.size() % d == 0,
                "chunk " << chunk.id() << " not a whole number of points");
  const std::size_t count = points.size() / d;
  const std::size_t k = static_cast<std::size_t>(params_.k);

  assign_points({points.data(), count, d, k, centers_.data(),
                 center_blocks_.data(), o.sums_.data(), o.counts_.data(),
                 &o.sse});

  // 3 flops per coordinate per distance evaluation, plus the accumulation.
  sim::Work w;
  w.flops = static_cast<double>(count) * static_cast<double>(k) *
                static_cast<double>(d) * 3.0 +
            static_cast<double>(count) * static_cast<double>(d);
  w.bytes = static_cast<double>(count) * static_cast<double>(d) *
            sizeof(double);
  return w;
}

sim::Work KMeansKernel::merge(freeride::ReductionObject& into,
                              const freeride::ReductionObject& other) const {
  auto& a = dynamic_cast<KMeansObject&>(into);
  const auto& b = dynamic_cast<const KMeansObject&>(other);
  FGP_CHECK(a.sums_.size() == b.sums_.size());
  for (std::size_t i = 0; i < a.sums_.size(); ++i) a.sums_[i] += b.sums_[i];
  for (std::size_t i = 0; i < a.counts_.size(); ++i)
    a.counts_[i] += b.counts_[i];
  a.sse += b.sse;

  sim::Work w;
  w.flops = static_cast<double>(a.sums_.size() + a.counts_.size() + 1);
  w.bytes = static_cast<double>(a.sums_.size() * sizeof(double) * 2);
  return w;
}

sim::Work KMeansKernel::global_reduce(freeride::ReductionObject& merged,
                                      bool& more_passes) {
  auto& o = dynamic_cast<KMeansObject&>(merged);
  const std::size_t d = static_cast<std::size_t>(params_.dim);
  const std::size_t k = static_cast<std::size_t>(params_.k);

  double shift = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (o.counts_[c] == 0) continue;  // empty cluster keeps its centre
    for (std::size_t j = 0; j < d; ++j) {
      const double next =
          o.sums_[c * d + j] / static_cast<double>(o.counts_[c]);
      const double diff = next - centers_[c * d + j];
      shift += diff * diff;
      centers_[c * d + j] = next;
    }
  }
  center_blocks_ = util::simd::pack_center_blocks(centers_.data(), k, d);
  sse_history_.push_back(o.sse);
  ++passes_run_;

  if (params_.fixed_passes > 0) {
    more_passes = passes_run_ < params_.fixed_passes;
  } else {
    more_passes = std::sqrt(shift) > params_.tol;
  }

  sim::Work w;
  w.flops = static_cast<double>(k * d * 3);
  w.bytes = static_cast<double>(k * d * sizeof(double) * 2);
  return w;
}

double KMeansKernel::broadcast_bytes() const {
  return static_cast<double>(centers_.size() * sizeof(double));
}

std::vector<double> initial_centers_from_dataset(
    const repository::ChunkedDataset& ds, int k, int dim) {
  FGP_CHECK(k > 0 && dim > 0);
  std::vector<double> centers;
  centers.reserve(static_cast<std::size_t>(k) * dim);
  for (const auto& chunk : ds.chunks()) {
    const auto pts = chunk.as_span<double>();
    for (std::size_t i = 0; i + dim <= pts.size();
         i += static_cast<std::size_t>(dim)) {
      for (int j = 0; j < dim; ++j) centers.push_back(pts[i + j]);
      if (centers.size() == static_cast<std::size_t>(k) * dim) return centers;
    }
  }
  throw util::Error("dataset holds fewer than k points");
}

std::vector<double> kmeans_reference(const std::vector<double>& points,
                                     int dim, int k,
                                     std::vector<double> centers, double tol,
                                     int max_passes,
                                     std::vector<double>* sse_history) {
  FGP_CHECK(dim > 0 && k > 0);
  const std::size_t d = static_cast<std::size_t>(dim);
  FGP_CHECK(points.size() % d == 0);
  const std::size_t count = points.size() / d;

  for (int pass = 0; pass < max_passes; ++pass) {
    std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(k), 0);
    double sse = 0.0;
    for (std::size_t p = 0; p < count; ++p) {
      const double* x = points.data() + p * d;
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
        // Serial coordinate order — the kernel's tiled fast path keeps the
        // same per-point bits, so exact comparisons against this hold.
        const double dist = util::simd::squared_distance_serial(
            x, centers.data() + c * d, d);
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      util::simd::accumulate(sums.data() + best_c * d, x, d);
      counts[best_c] += 1;
      sse += best;
    }
    if (sse_history) sse_history->push_back(sse);

    double shift = 0.0;
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t j = 0; j < d; ++j) {
        const double next = sums[c * d + j] / static_cast<double>(counts[c]);
        const double diff = next - centers[c * d + j];
        shift += diff * diff;
        centers[c * d + j] = next;
      }
    }
    if (std::sqrt(shift) <= tol) break;
  }
  return centers;
}

}  // namespace fgp::apps
