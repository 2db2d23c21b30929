// helpers.h — shared test fixtures: a fully controllable synthetic
// reduction kernel plus ideal-cluster job setups under which the paper's
// global-reduction predictor must be exact.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "freeride/runtime.h"
#include "repository/dataset.h"
#include "sim/cluster.h"
#include "sim/network.h"

namespace fgp::testing {

/// Reduction object of the SumKernel: a running sum plus optional ballast
/// bytes that make the serialized size either constant or proportional to
/// the data processed.
class SumObject final : public freeride::ReductionObject {
 public:
  void serialize(util::ByteWriter& w) const override {
    w.put_f64(sum);
    w.put_u64(count);
    w.put_vector(ballast);
  }
  void deserialize(util::ByteReader& r) override {
    sum = r.get_f64();
    count = r.get_u64();
    ballast = r.get_vector<std::uint8_t>();
  }

  double sum = 0.0;
  std::uint64_t count = 0;
  std::vector<std::uint8_t> ballast;
};

struct SumKernelParams {
  double flops_per_element = 10.0;
  double bytes_per_element = 8.0;
  int passes = 1;
  /// Constant ballast added once per object (constant-size class).
  std::size_t constant_ballast = 0;
  /// Ballast bytes appended per processed element (linear-size class).
  double ballast_per_element = 0.0;
  bool scales_with_data = false;
  /// Work charged per merge and per global reduction (usually zero so the
  /// exactness property tests have T_g == 0).
  double merge_flops = 0.0;
  double global_flops = 0.0;
};

/// Sums the doubles in every chunk. Fully deterministic work accounting,
/// controllable object size — the test double for runtime and predictor.
class SumKernel final : public freeride::ReductionKernel {
 public:
  explicit SumKernel(SumKernelParams params = {}) : params_(params) {}

  std::string name() const override { return "sum"; }

  std::unique_ptr<freeride::ReductionObject> create_object() const override {
    auto obj = std::make_unique<SumObject>();
    obj->ballast.resize(params_.constant_ballast, 0xAB);
    return obj;
  }

  sim::Work process_chunk(const repository::Chunk& chunk,
                          freeride::ReductionObject& obj) const override {
    auto& o = dynamic_cast<SumObject&>(obj);
    const auto values = chunk.as_span<double>();
    o.sum = std::accumulate(values.begin(), values.end(), o.sum);
    o.count += values.size();
    const auto extra = static_cast<std::size_t>(
        params_.ballast_per_element * static_cast<double>(values.size()));
    o.ballast.resize(o.ballast.size() + extra, 0xCD);
    sim::Work w;
    w.flops = params_.flops_per_element * static_cast<double>(values.size());
    w.bytes = params_.bytes_per_element * static_cast<double>(values.size());
    return w;
  }

  sim::Work merge(freeride::ReductionObject& into,
                  const freeride::ReductionObject& other) const override {
    auto& a = dynamic_cast<SumObject&>(into);
    const auto& b = dynamic_cast<const SumObject&>(other);
    a.sum += b.sum;
    a.count += b.count;
    // Constant ballast is replicated per node, not additive.
    const std::size_t linear_part =
        b.ballast.size() - std::min(b.ballast.size(), params_.constant_ballast);
    a.ballast.insert(a.ballast.end(), b.ballast.begin(),
                     b.ballast.begin() + static_cast<std::ptrdiff_t>(linear_part));
    return {params_.merge_flops, 0.0};
  }

  sim::Work global_reduce(freeride::ReductionObject&,
                          bool& more_passes) override {
    ++passes_done_;
    more_passes = passes_done_ < params_.passes;
    return {params_.global_flops, 0.0};
  }

  bool reduction_object_scales_with_data() const override {
    return params_.scales_with_data;
  }

  int passes_done() const { return passes_done_; }

 private:
  SumKernelParams params_;
  int passes_done_ = 0;
};

/// A dataset of `chunks` chunks, each holding `per_chunk` doubles equal to
/// their global index (so the expected sum is closed-form).
inline repository::ChunkedDataset make_sum_dataset(std::size_t chunks,
                                                   std::size_t per_chunk,
                                                   double virtual_scale = 1.0) {
  repository::DatasetMeta meta;
  meta.name = "sum-data";
  meta.schema = "f64";
  repository::ChunkedDataset ds(meta);
  double next = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> values(per_chunk);
    for (auto& v : values) v = next++;
    ds.add_chunk(repository::make_chunk(c, values, virtual_scale));
  }
  return ds;
}

/// Expected sum of make_sum_dataset(chunks, per_chunk): 0 + 1 + ... + N-1.
inline double expected_sum(std::size_t chunks, std::size_t per_chunk) {
  const double n = static_cast<double>(chunks * per_chunk);
  return n * (n - 1.0) / 2.0;
}

/// A frictionless setup: ideal clusters + ideal WAN. Under it the
/// global-reduction predictor is exact for constant-object kernels.
inline freeride::JobSetup ideal_setup(const repository::ChunkedDataset* ds,
                                      int data_nodes, int compute_nodes) {
  freeride::JobSetup setup;
  setup.dataset = ds;
  setup.data_cluster = sim::cluster_ideal();
  setup.compute_cluster = sim::cluster_ideal();
  setup.wan = sim::wan_ideal(100.0);
  setup.config.data_nodes = data_nodes;
  setup.config.compute_nodes = compute_nodes;
  setup.config.verify_chunks = false;
  return setup;
}

/// A realistic setup on the paper's Pentium/Myrinet cluster.
inline freeride::JobSetup pentium_setup(const repository::ChunkedDataset* ds,
                                        int data_nodes, int compute_nodes,
                                        double wan_mbps_value = 80.0) {
  freeride::JobSetup setup;
  setup.dataset = ds;
  setup.data_cluster = sim::cluster_pentium_myrinet();
  setup.compute_cluster = sim::cluster_pentium_myrinet();
  setup.wan = sim::wan_mbps(wan_mbps_value);
  setup.config.data_nodes = data_nodes;
  setup.config.compute_nodes = compute_nodes;
  return setup;
}

/// The (data nodes n, compute nodes c) pairs of ns x cs that the
/// middleware accepts (n <= c: at least one compute node per data node),
/// in ::testing::Combine order, for a config sweep's
/// INSTANTIATE_TEST_SUITE_P. ctest names carry the pair, not an index, so
/// each pair keeps its name.
inline auto valid_configs(std::initializer_list<int> ns,
                          std::initializer_list<int> cs) {
  std::vector<std::tuple<int, int>> pairs;
  for (const int n : ns)
    for (const int c : cs)
      if (n <= c) pairs.emplace_back(n, c);
  return ::testing::ValuesIn(pairs);
}

}  // namespace fgp::testing
