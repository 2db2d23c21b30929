// NEGATIVE fixture: accumulation shapes the §10 contract permits — the
// blocked simd helpers, plain scalar statistics (serial order is already
// pinned), squared scalars without indexed loads, element-wise writes
// into index-owned slots, a pointer to double stepped by an indexed
// product, and a double stepped in a for-header ahead of an indexed loop
// body. Analyzed as "src/apps/fixture.cpp".
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/simd.h"

namespace fgp {

double blocked_dot(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return util::simd::dot(a.data(), b.data(), a.size());  // sanctioned path
}

double log_sum_exp(const std::vector<double>& logp, double mx) {
  double sum = 0.0;
  for (double v : logp) {
    sum += std::exp(v - mx);  // scalar statistic, no indexed product: fine
  }
  return sum;
}

double centroid_shift(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double shift = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    shift += diff * diff;  // product of locals, no indexed load: fine
  }
  return shift;
}

void slot_axpy(std::vector<double>& out, const std::vector<double>& x,
               const std::vector<double>& y) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] += x[i] * y[i];  // element-wise into an owned slot: fine
  }
}

double strided_max(const double* blocks, const std::size_t* offsets,
                   std::size_t n, std::size_t d) {
  double best = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const double* block = blocks;
    block += offsets[b] * d;  // pointer arithmetic, not an accumulation
    best = std::max(best, block[0]);
  }
  return best;
}

double sampled_max(const std::vector<double>& x, double step, std::size_t d) {
  double best = 0.0;
  for (std::size_t r = 0; r < x.size(); r += d) {
    for (double t = 0.0; t < 1.0; t += step * d) {  // ends at the ')'
      best = std::max(best, x[r] * t);
    }
  }
  return best;
}

}  // namespace fgp
