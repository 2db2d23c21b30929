// kmeans.h — k-means clustering on the FREERIDE-G reduction API (paper §4.1).
//
// Local reduction: assign each point to its nearest centre and accumulate
// per-cluster coordinate sums and counts. Global reduction: recompute
// centres from the merged sums. The reduction object (k centres' sums +
// counts) has *constant* size — the paper's "constant reduction object
// size" class — and the global reduction scales with the node count but
// not the data ("linear-constant" class).
#pragma once

#include <memory>
#include <vector>

#include "freeride/reduction.h"
#include "repository/dataset.h"

namespace fgp::apps {

/// Reduction object: per-cluster coordinate sums, member counts, and the
/// summed squared distance (the k-means objective).
class KMeansObject final : public freeride::ReductionObject {
 public:
  KMeansObject() = default;
  KMeansObject(int k, int dim) : sums_(static_cast<std::size_t>(k) * dim),
                                 counts_(static_cast<std::size_t>(k)) {}

  void serialize(util::ByteWriter& w) const override;
  void deserialize(util::ByteReader& r) override;

  std::vector<double> sums_;
  std::vector<std::uint64_t> counts_;
  double sse = 0.0;
};

struct KMeansParams {
  int k = 8;
  int dim = 8;
  std::vector<double> initial_centers;  ///< row-major [k x dim]
  double tol = 1e-4;   ///< centre-shift convergence threshold
  int fixed_passes = 0;  ///< >0: run exactly this many passes (benches)
};

class KMeansKernel final : public freeride::ReductionKernel {
 public:
  explicit KMeansKernel(KMeansParams params);

  std::string name() const override { return "kmeans"; }
  std::unique_ptr<freeride::ReductionObject> create_object() const override;
  sim::Work process_chunk(const repository::Chunk& chunk,
                          freeride::ReductionObject& obj) const override;
  sim::Work merge(freeride::ReductionObject& into,
                  const freeride::ReductionObject& other) const override;
  sim::Work global_reduce(freeride::ReductionObject& merged,
                          bool& more_passes) override;
  double broadcast_bytes() const override;
  bool reduction_object_scales_with_data() const override { return false; }

  const std::vector<double>& centers() const { return centers_; }
  const std::vector<double>& objective_history() const { return sse_history_; }
  int passes_run() const { return passes_run_; }

 private:
  KMeansParams params_;
  std::vector<double> centers_;
  /// centers_ regrouped by util::simd::pack_center_blocks; rebuilt
  /// whenever centers_ changes.
  std::vector<double> center_blocks_;
  std::vector<double> sse_history_;
  int passes_run_ = 0;
};

/// Deterministic initial centres: the first k points of the dataset.
std::vector<double> initial_centers_from_dataset(
    const repository::ChunkedDataset& ds, int k, int dim);

/// Serial reference implementation (tests compare the parallel runtime's
/// result against this). Returns final centres; `sse_history` receives the
/// objective after every pass.
std::vector<double> kmeans_reference(const std::vector<double>& points,
                                     int dim, int k,
                                     std::vector<double> centers, double tol,
                                     int max_passes,
                                     std::vector<double>* sse_history);

}  // namespace fgp::apps
