// common.h — shared harness for the figure-reproduction benches.
//
// Every bench binary reproduces one figure of the paper: it builds the
// figure's workload at paper-scale virtual size, collects the base profile
// the figure prescribes, predicts every configuration of the evaluation
// grid, runs the "exact" execution on the virtual cluster, and prints the
// relative-error table (E = |T_exact - T_pred| / T_exact, paper §5).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/classes.h"
#include "core/hetero.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "freeride/runtime.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "sweep.h"

namespace fgp::obs {
class Registry;
class ResidualReport;
class TraceRecorder;
}  // namespace fgp::obs

namespace fgp::bench {

using KernelFactory =
    std::function<std::unique_ptr<freeride::ReductionKernel>()>;

struct NodeConfig {
  int n = 1;
  int c = 1;
};

/// The evaluation grid of the paper's Figures 2–13: data nodes 1..8,
/// compute nodes up to 16, compute >= data (14 configurations).
std::vector<NodeConfig> paper_grid();

/// One benchable application instance: a dataset at paper-scale virtual
/// size plus a factory producing fresh kernels (kernels hold per-job state).
struct BenchApp {
  std::string name;
  std::shared_ptr<repository::ChunkedDataset> dataset;
  KernelFactory factory;
  core::AppClasses classes;
};

/// The paper's five applications at configurable virtual/real sizes.
BenchApp make_kmeans_app(double virtual_mb, double real_mb,
                         std::uint64_t seed, int passes = 10);
BenchApp make_em_app(double virtual_mb, double real_mb, std::uint64_t seed,
                     int passes = 10);
BenchApp make_knn_app(double virtual_mb, double real_mb, std::uint64_t seed);
BenchApp make_vortex_app(double virtual_mb, int grid, std::uint64_t seed);
BenchApp make_defect_app(double virtual_mb, int nx, int ny, int nz,
                         std::uint64_t seed);

/// An aliasing view of `app` at another virtual size: the view's dataset
/// shares every payload slab with the original (zero payload bytes copied
/// — DESIGN.md §13), so a size-scaling figure generates its dataset once
/// and derives every scale point from it. Kernel factory and classes are
/// shared with the original app.
BenchApp with_virtual_size(const BenchApp& app, double virtual_mb);

/// An out-of-core copy of `app`: the dataset is saved to a throwaway
/// store under the system temp directory and reloaded with
/// DatasetStore::load_streamed, so every exact run pulls payloads through
/// budget-bounded mmap windows with block prefetch (DESIGN.md §15)
/// instead of holding them resident. Results are bit-identical to the
/// in-memory app (pinned by tests/test_dataplane.cpp). `budget_bytes` 0
/// keeps the default StreamConfig; `metrics` (optional) receives the
/// streamer's counters (store.windowed_bytes, prefetch hits/misses,
/// window recycles). The temp store is removed when the last streamed
/// view of the dataset drops.
BenchApp streamed_copy(const BenchApp& app, std::size_t budget_bytes = 0,
                       obs::Registry* metrics = nullptr);

/// The other generalized-reduction algorithms the paper names (§2.2) plus
/// the volumetric vortex miner.
BenchApp make_apriori_app(double virtual_mb, std::uint64_t seed);
BenchApp make_ann_app(double virtual_mb, std::uint64_t seed, int passes = 10);
BenchApp make_knn_classify_app(double virtual_mb, std::uint64_t seed);
BenchApp make_vortex3d_app(double virtual_mb, std::uint64_t seed);

/// Observability sinks a figure driver can fill in (all optional):
/// `residuals` receives one per-component point per grid configuration
/// (global-reduction model), `trace`/`metrics` receive one traced exact
/// run of the grid's largest configuration.
struct FigureObs {
  obs::TraceRecorder* trace = nullptr;
  obs::Registry* metrics = nullptr;
  obs::ResidualReport* residuals = nullptr;
};

/// Runs one job and returns its timing. By default the runtime borrows the
/// process-wide shared pool (hardware concurrency) for its two-level
/// reduction; pass nullptr for a fully serial reference run — the result is
/// bit-identical either way (DESIGN.md §11). `trace`/`metrics` (optional)
/// are handed to the runtime as its observability sinks.
freeride::RunResult simulate(const BenchApp& app,
                             const sim::ClusterSpec& data_cluster,
                             const sim::ClusterSpec& compute_cluster,
                             const sim::WanSpec& wan, NodeConfig config,
                             bool caching = false,
                             util::ThreadPool* pool = &shared_pool(),
                             obs::TraceRecorder* trace = nullptr,
                             obs::Registry* metrics = nullptr);

/// Collects the prediction-model profile for one configuration (same pool
/// semantics as simulate()).
core::Profile profile_of(const BenchApp& app,
                         const sim::ClusterSpec& data_cluster,
                         const sim::ClusterSpec& compute_cluster,
                         const sim::WanSpec& wan, NodeConfig config,
                         util::ThreadPool* pool = &shared_pool());

/// Figures 2–6: base profile at 1-1, all three prediction models across
/// the grid, one table. The grid's exact runs execute concurrently on
/// `sweep`. When `fig_obs` has sinks, residuals cover every grid point and
/// one extra traced run records the largest configuration.
void three_model_figure(const SweepRunner& sweep, const std::string& title,
                        const BenchApp& app, const sim::ClusterSpec& cluster,
                        const sim::WanSpec& wan, FigureObs fig_obs = {});

/// Figures 7–10: global-reduction model only; the profile may use a
/// different dataset (size scaling) and/or WAN (bandwidth change).
void global_model_figure(const SweepRunner& sweep, const std::string& title,
                         const BenchApp& profile_app,
                         const BenchApp& target_app,
                         const sim::ClusterSpec& cluster,
                         const sim::WanSpec& profile_wan,
                         const sim::WanSpec& target_wan,
                         FigureObs fig_obs = {});

/// Figures 11–13: base profile on cluster A; component scaling factors
/// from representative apps run on identical configurations on A and B;
/// predictions and exact runs on cluster B. When `fig_obs` has sinks,
/// residuals cover every grid point and one extra traced run records the
/// largest configuration on cluster B.
void hetero_figure(const SweepRunner& sweep, const std::string& title,
                   const BenchApp& profile_app, const BenchApp& target_app,
                   const std::vector<BenchApp>& representatives,
                   NodeConfig base_config, const sim::ClusterSpec& cluster_a,
                   const sim::ClusterSpec& cluster_b, const sim::WanSpec& wan,
                   FigureObs fig_obs = {});

}  // namespace fgp::bench
