#include "common.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <utility>

#include "apps/ann.h"
#include "apps/apriori.h"
#include "apps/defect.h"
#include "apps/em.h"
#include "apps/kmeans.h"
#include "apps/knn.h"
#include "apps/knn_classify.h"
#include "apps/vortex.h"
#include "apps/vortex3d.h"
#include "core/ipc_probe.h"
#include "core/residuals.h"
#include "datagen/flowfield.h"
#include "datagen/flowfield3d.h"
#include "datagen/lattice.h"
#include "datagen/points.h"
#include "datagen/transactions.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "repository/store.h"
#include "util/stats.h"
#include "util/table.h"

namespace fgp::bench {

std::vector<NodeConfig> paper_grid() {
  std::vector<NodeConfig> grid;
  for (int n : {1, 2, 4, 8})
    for (int c = n; c <= 16; c *= 2) grid.push_back({n, c});
  return grid;
}

BenchApp make_kmeans_app(double virtual_mb, double real_mb,
                         std::uint64_t seed, int passes) {
  auto spec = datagen::scaled_points_spec(virtual_mb, real_mb, 8, seed);
  spec.num_components = 8;
  spec.name = "kmeans-points";
  auto generated =
      std::make_shared<datagen::PointsDataset>(datagen::generate_points(spec));

  BenchApp app;
  app.name = "kmeans";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::KMeansParams params;
  params.k = 8;
  params.dim = 8;
  params.initial_centers =
      apps::initial_centers_from_dataset(generated->dataset, 8, 8);
  params.fixed_passes = passes;
  app.factory = [params] {
    return std::make_unique<apps::KMeansKernel>(params);
  };
  app.classes = {core::RoSizeClass::Constant,
                 core::GlobalReductionClass::LinearConstant};
  return app;
}

BenchApp make_em_app(double virtual_mb, double real_mb, std::uint64_t seed,
                     int passes) {
  auto spec = datagen::scaled_points_spec(virtual_mb, real_mb, 8, seed);
  spec.num_components = 4;
  spec.name = "em-points";
  auto generated =
      std::make_shared<datagen::PointsDataset>(datagen::generate_points(spec));

  BenchApp app;
  app.name = "em";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::EMParams params;
  params.g = 4;
  params.dim = 8;
  params.initial_means =
      apps::initial_centers_from_dataset(generated->dataset, 4, 8);
  params.fixed_passes = passes;
  app.factory = [params] { return std::make_unique<apps::EMKernel>(params); };
  app.classes = {core::RoSizeClass::LinearWithData,
                 core::GlobalReductionClass::ConstantLinear};
  return app;
}

BenchApp make_knn_app(double virtual_mb, double real_mb, std::uint64_t seed) {
  auto spec = datagen::scaled_points_spec(virtual_mb, real_mb, 8, seed);
  spec.num_components = 4;
  spec.name = "knn-points";
  auto generated =
      std::make_shared<datagen::PointsDataset>(datagen::generate_points(spec));

  BenchApp app;
  app.name = "knn";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::KnnParams params;
  params.k = 16;
  params.dim = 8;
  // 8 query points drawn from the dataset itself.
  params.queries = apps::initial_centers_from_dataset(generated->dataset, 8, 8);
  app.factory = [params] { return std::make_unique<apps::KnnKernel>(params); };
  app.classes = {core::RoSizeClass::Constant,
                 core::GlobalReductionClass::LinearConstant};
  return app;
}

BenchApp make_vortex_app(double virtual_mb, int grid, std::uint64_t seed) {
  datagen::FlowSpec spec;
  spec.width = grid;
  spec.height = grid;
  spec.num_vortices = 6;
  // Aim for ~11 MB virtual chunks (constant chunk size, like the points
  // generator) within what the row count allows.
  const int chunks_wanted =
      std::clamp(static_cast<int>(virtual_mb / 11.0), 8, grid / 2);
  spec.rows_per_chunk = std::max(2, grid / chunks_wanted);
  spec.seed = seed;
  spec.name = "vortex-field";
  // Generate once, then rescale in place: the real payload size (halo rows
  // and headers inflate it beyond grid*grid cells) is only known after
  // generation, and virtual_scale never affects the payload bytes.
  auto generated =
      std::make_shared<datagen::FlowDataset>(datagen::generate_flowfield(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "vortex";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::VortexParams params;
  params.vorticity_threshold = 0.8;
  params.min_cells = 8;
  app.factory = [params] {
    return std::make_unique<apps::VortexKernel>(params);
  };
  app.classes = {core::RoSizeClass::LinearWithData,
                 core::GlobalReductionClass::ConstantLinear};
  return app;
}

BenchApp make_defect_app(double virtual_mb, int nx, int ny, int nz,
                         std::uint64_t seed) {
  datagen::LatticeSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  spec.num_vacancy_clusters = 8;
  spec.num_interstitials = 6;
  spec.num_displaced_clusters = 6;
  // Aim for ~2.7 MB virtual chunks within what the plane count allows.
  const int chunks_wanted =
      std::clamp(static_cast<int>(virtual_mb / 2.7), 8, nz);
  spec.zslabs_per_chunk = std::max(1, nz / chunks_wanted);
  spec.seed = seed;
  spec.name = "defect-lattice";
  auto generated =
      std::make_shared<datagen::LatticeDataset>(datagen::generate_lattice(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "defect";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  app.factory = [] { return std::make_unique<apps::DefectKernel>(); };
  app.classes = {core::RoSizeClass::LinearWithData,
                 core::GlobalReductionClass::ConstantLinear};
  return app;
}

namespace {

/// Forwarding ChunkSource that owns the throwaway store directory backing
/// a streamed bench dataset: views share the source, so the directory
/// lives exactly as long as any of them and is removed with the last one.
class ScopedStoreSource final : public repository::ChunkSource {
 public:
  ScopedStoreSource(std::shared_ptr<const repository::ChunkSource> inner,
                    std::filesystem::path dir)
      : inner_(std::move(inner)), dir_(std::move(dir)) {}
  ~ScopedStoreSource() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best effort
  }
  repository::Chunk fetch(std::size_t index) const override {
    return inner_->fetch(index);
  }
  void prefetch(std::size_t index) const override {
    inner_->prefetch(index);
  }

 private:
  std::shared_ptr<const repository::ChunkSource> inner_;
  std::filesystem::path dir_;
};

}  // namespace

BenchApp streamed_copy(const BenchApp& app, std::size_t budget_bytes,
                       obs::Registry* metrics) {
  namespace fs = std::filesystem;
  // One directory per streamed copy: a process-local sequence number keeps
  // copies within a run apart, the address salt keeps concurrent bench
  // processes from clobbering each other's stores.
  static std::atomic<unsigned> sequence{0};
  const unsigned seq = sequence.fetch_add(1);
  const auto salt = reinterpret_cast<std::uintptr_t>(&sequence);
  const fs::path root =
      fs::temp_directory_path() /
      ("fgp_streamed_" + std::to_string(salt) + "_" + std::to_string(seq));
  const repository::DatasetStore store(root, nullptr, metrics);
  store.save(*app.dataset);

  repository::StreamConfig cfg;
  if (budget_bytes != 0) cfg.budget_bytes = budget_bytes;
  auto ds = store.load_streamed(app.dataset->meta().name, cfg);
  ds.attach_source(
      std::make_shared<const ScopedStoreSource>(ds.source(), root));

  BenchApp out = app;
  out.dataset = std::make_shared<repository::ChunkedDataset>(std::move(ds));
  return out;
}

BenchApp with_virtual_size(const BenchApp& app, double virtual_mb) {
  BenchApp view = app;
  const double scale =
      virtual_mb * 1e6 /
      static_cast<double>(app.dataset->total_real_bytes());
  view.dataset = std::make_shared<repository::ChunkedDataset>(
      app.dataset->with_uniform_virtual_scale(scale));
  return view;
}

BenchApp make_apriori_app(double virtual_mb, std::uint64_t seed) {
  auto spec = datagen::default_market_baskets(30000, seed);
  spec.transactions_per_chunk = 30000 / 64;
  spec.name = "apriori-baskets";
  auto generated = std::make_shared<datagen::TransactionsDataset>(
      datagen::generate_transactions(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "apriori";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::AprioriParams params;
  params.num_items = 200;
  params.min_support = 0.08;
  params.max_level = 4;
  app.factory = [params] {
    return std::make_unique<apps::AprioriKernel>(params);
  };
  app.classes = {core::RoSizeClass::Constant,
                 core::GlobalReductionClass::LinearConstant};
  return app;
}

BenchApp make_ann_app(double virtual_mb, std::uint64_t seed, int passes) {
  auto spec = datagen::scaled_points_spec(virtual_mb, 1.0, 8, seed);
  spec.num_components = 4;
  spec.name = "ann-points";
  auto generated = std::make_shared<datagen::LabeledPointsDataset>(
      datagen::generate_labeled_points(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "ann";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::AnnParams params;
  params.dim = 8;
  params.classes = 4;
  params.hidden = 16;
  params.fixed_passes = passes;
  app.factory = [params] { return std::make_unique<apps::AnnKernel>(params); };
  app.classes = {core::RoSizeClass::Constant,
                 core::GlobalReductionClass::LinearConstant};
  return app;
}

BenchApp make_knn_classify_app(double virtual_mb, std::uint64_t seed) {
  auto spec = datagen::scaled_points_spec(virtual_mb, 1.0, 8, seed);
  spec.num_components = 4;
  spec.name = "knnc-points";
  auto generated = std::make_shared<datagen::LabeledPointsDataset>(
      datagen::generate_labeled_points(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "knn-classify";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::KnnClassifyParams params;
  params.k = 16;
  params.dim = 8;
  params.queries = generated->true_centers;
  app.factory = [params] {
    return std::make_unique<apps::KnnClassifyKernel>(params);
  };
  app.classes = {core::RoSizeClass::Constant,
                 core::GlobalReductionClass::LinearConstant};
  return app;
}

BenchApp make_vortex3d_app(double virtual_mb, std::uint64_t seed) {
  datagen::Flow3dSpec spec;
  spec.nx = 48;
  spec.ny = 48;
  spec.nz = 96;
  spec.num_tubes = 4;
  spec.planes_per_chunk = 2;  // 48 chunks
  spec.seed = seed;
  spec.name = "vortex3d-volume";
  auto generated = std::make_shared<datagen::Flow3dDataset>(
      datagen::generate_flowfield3d(spec));
  generated->dataset.set_uniform_virtual_scale(
      virtual_mb * 1e6 /
      static_cast<double>(generated->dataset.total_real_bytes()));

  BenchApp app;
  app.name = "vortex3d";
  app.dataset = std::shared_ptr<repository::ChunkedDataset>(
      generated, &generated->dataset);
  apps::Vortex3dParams params;
  app.factory = [params] {
    return std::make_unique<apps::Vortex3dKernel>(params);
  };
  app.classes = {core::RoSizeClass::LinearWithData,
                 core::GlobalReductionClass::ConstantLinear};
  return app;
}

freeride::RunResult simulate(const BenchApp& app,
                             const sim::ClusterSpec& data_cluster,
                             const sim::ClusterSpec& compute_cluster,
                             const sim::WanSpec& wan, NodeConfig config,
                             bool caching, util::ThreadPool* pool,
                             obs::TraceRecorder* trace,
                             obs::Registry* metrics) {
  freeride::JobSetup setup;
  setup.dataset = app.dataset.get();
  setup.data_cluster = data_cluster;
  setup.compute_cluster = compute_cluster;
  setup.wan = wan;
  setup.config.data_nodes = config.n;
  setup.config.compute_nodes = config.c;
  setup.config.enable_caching = caching;
  setup.trace = trace;
  setup.metrics = metrics;
  auto kernel = app.factory();
  return freeride::Runtime(pool).run(setup, *kernel);
}

core::Profile profile_of(const BenchApp& app,
                         const sim::ClusterSpec& data_cluster,
                         const sim::ClusterSpec& compute_cluster,
                         const sim::WanSpec& wan, NodeConfig config,
                         util::ThreadPool* pool) {
  freeride::JobSetup setup;
  setup.dataset = app.dataset.get();
  setup.data_cluster = data_cluster;
  setup.compute_cluster = compute_cluster;
  setup.wan = wan;
  setup.config.data_nodes = config.n;
  setup.config.compute_nodes = config.c;
  auto kernel = app.factory();
  return core::ProfileCollector::collect(setup, *kernel, pool);
}

namespace {

std::string config_label(NodeConfig c) {
  return std::to_string(c.n) + "-" + std::to_string(c.c);
}

core::ProfileConfig target_config(const core::Profile& base, NodeConfig c,
                                  double dataset_bytes, double bandwidth) {
  core::ProfileConfig t = base.config;
  t.data_nodes = c.n;
  t.compute_nodes = c.c;
  t.dataset_bytes = dataset_bytes;
  t.bandwidth_Bps = bandwidth;
  return t;
}

// One extra exact run of the grid's largest configuration, recorded into
// the figure's trace/metrics sinks. Runs from the calling thread (never
// inside sweep.map) so a single recorder sees one deterministic job.
void traced_largest_run(const FigureObs& fig_obs, const BenchApp& app,
                        const sim::ClusterSpec& cluster,
                        const sim::WanSpec& wan, NodeConfig largest,
                        util::ThreadPool* pool) {
  if (fig_obs.trace == nullptr && fig_obs.metrics == nullptr) return;
  simulate(app, cluster, cluster, wan, largest, false, pool, fig_obs.trace,
           fig_obs.metrics);
}

}  // namespace

void three_model_figure(const SweepRunner& sweep, const std::string& title,
                        const BenchApp& app, const sim::ClusterSpec& cluster,
                        const sim::WanSpec& wan, FigureObs fig_obs) {
  std::cout << title << "\n"
            << "  app=" << app.name << "  dataset="
            << app.dataset->total_virtual_bytes() / 1e6
            << " MB (virtual)  base profile 1-1\n\n";

  const core::Profile base =
      profile_of(app, cluster, cluster, wan, {1, 1}, sweep.pool());

  core::PredictorOptions opts;
  opts.classes = app.classes;
  opts.ipc = core::measure_ipc(cluster);

  // The exact runs are independent jobs: fan them out over the sweep pool
  // and read them back in grid order.
  const std::vector<NodeConfig> grid = paper_grid();
  const auto actuals = sweep.map(grid.size(), [&](std::size_t i) {
    return simulate(app, cluster, cluster, wan, grid[i], false, sweep.pool());
  });

  util::Table table({"data-compute", "no-comm", "red-comm", "global-red",
                     "T_exact(s)"});
  util::Accumulator worst_none, worst_rc, worst_gr;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const NodeConfig cfg = grid[i];
    const auto& actual = actuals[i];
    const double exact = actual.timing.total.total();
    const auto target = target_config(
        base, cfg, app.dataset->total_virtual_bytes(), wan.per_link_Bps);

    std::vector<std::string> row{config_label(cfg)};
    for (const auto model : {core::PredictionModel::NoCommunication,
                             core::PredictionModel::ReductionCommunication,
                             core::PredictionModel::GlobalReduction}) {
      opts.model = model;
      const core::PredictedTime predicted_time =
          core::Predictor(base, opts).predict(target);
      const double predicted = predicted_time.total();
      const double err = util::relative_error(exact, predicted);
      row.push_back(util::Table::pct(err));
      if (model == core::PredictionModel::NoCommunication) worst_none.add(err);
      if (model == core::PredictionModel::ReductionCommunication)
        worst_rc.add(err);
      if (model == core::PredictionModel::GlobalReduction) {
        worst_gr.add(err);
        if (fig_obs.residuals != nullptr)
          fig_obs.residuals->add(core::make_residual_point(
              config_label(cfg), predicted_time, actual.timing.total));
      }
    }
    row.push_back(util::Table::fmt(exact, 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n  max error: no-comm " << util::Table::pct(worst_none.max())
            << ", red-comm " << util::Table::pct(worst_rc.max())
            << ", global-red " << util::Table::pct(worst_gr.max()) << "\n\n";

  if (fig_obs.residuals != nullptr) {
    fig_obs.residuals->set_sweep(app.name);
    fig_obs.residuals->set_model("global-reduction");
  }
  traced_largest_run(fig_obs, app, cluster, wan, grid.back(), sweep.pool());
}

void global_model_figure(const SweepRunner& sweep, const std::string& title,
                         const BenchApp& profile_app,
                         const BenchApp& target_app,
                         const sim::ClusterSpec& cluster,
                         const sim::WanSpec& profile_wan,
                         const sim::WanSpec& target_wan, FigureObs fig_obs) {
  std::cout << title << "\n"
            << "  app=" << target_app.name << "  profile dataset="
            << profile_app.dataset->total_virtual_bytes() / 1e6
            << " MB @ " << profile_wan.per_link_Bps * 8 / 1e3
            << " Kbps -> target dataset="
            << target_app.dataset->total_virtual_bytes() / 1e6 << " MB @ "
            << target_wan.per_link_Bps * 8 / 1e3
            << " Kbps  (global-reduction model)\n\n";

  const core::Profile base = profile_of(profile_app, cluster, cluster,
                                        profile_wan, {1, 1}, sweep.pool());

  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = target_app.classes;
  opts.ipc = core::measure_ipc(cluster);
  const core::Predictor predictor(base, opts);

  const std::vector<NodeConfig> grid = paper_grid();
  const auto actuals = sweep.map(grid.size(), [&](std::size_t i) {
    return simulate(target_app, cluster, cluster, target_wan, grid[i], false,
                    sweep.pool());
  });

  util::Table table({"data-compute", "error", "T_exact(s)", "T_pred(s)"});
  util::Accumulator worst;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const NodeConfig cfg = grid[i];
    const auto& actual = actuals[i];
    const double exact = actual.timing.total.total();
    const auto target =
        target_config(base, cfg, target_app.dataset->total_virtual_bytes(),
                      target_wan.per_link_Bps);
    const core::PredictedTime predicted_time = predictor.predict(target);
    const double predicted = predicted_time.total();
    const double err = util::relative_error(exact, predicted);
    worst.add(err);
    if (fig_obs.residuals != nullptr)
      fig_obs.residuals->add(core::make_residual_point(
          config_label(cfg), predicted_time, actual.timing.total));
    table.add_row({config_label(cfg), util::Table::pct(err),
                   util::Table::fmt(exact, 2), util::Table::fmt(predicted, 2)});
  }
  table.print(std::cout);
  std::cout << "\n  max error: " << util::Table::pct(worst.max()) << "\n\n";

  if (fig_obs.residuals != nullptr) {
    fig_obs.residuals->set_sweep(target_app.name);
    fig_obs.residuals->set_model("global-reduction");
  }
  traced_largest_run(fig_obs, target_app, cluster, target_wan, grid.back(),
                     sweep.pool());
}

void hetero_figure(const SweepRunner& sweep, const std::string& title,
                   const BenchApp& profile_app, const BenchApp& target_app,
                   const std::vector<BenchApp>& representatives,
                   NodeConfig base_config, const sim::ClusterSpec& cluster_a,
                   const sim::ClusterSpec& cluster_b,
                   const sim::WanSpec& wan, FigureObs fig_obs) {
  std::cout << title << "\n"
            << "  app=" << target_app.name << "  base profile "
            << base_config.n << "-" << base_config.c << " on "
            << cluster_a.name << " ("
            << profile_app.dataset->total_virtual_bytes() / 1e6
            << " MB) -> predictions for " << cluster_b.name << " ("
            << target_app.dataset->total_virtual_bytes() / 1e6 << " MB)\n";

  // Representative applications on identical configurations on A and B —
  // 2 * |reps| independent profile runs, fanned out together.
  const auto rep_profiles =
      sweep.map(representatives.size(), [&](std::size_t i) {
        const auto& rep = representatives[i];
        core::Profile a =
            profile_of(rep, cluster_a, cluster_a, wan, base_config,
                       sweep.pool());
        a.app = rep.name;
        core::Profile b =
            profile_of(rep, cluster_b, cluster_b, wan, base_config,
                       sweep.pool());
        b.app = rep.name;
        return std::make_pair(std::move(a), std::move(b));
      });
  std::vector<core::Profile> on_a, on_b;
  for (const auto& [a, b] : rep_profiles) {
    on_a.push_back(a);
    on_b.push_back(b);
  }
  const core::ScalingFactors factors = core::compute_scaling_factors(on_a, on_b);
  std::cout << "  scaling factors: s_d=" << util::Table::fmt(factors.disk, 3)
            << " s_n=" << util::Table::fmt(factors.network, 3)
            << " s_c=" << util::Table::fmt(factors.compute, 3) << "\n\n";

  const core::Profile base = profile_of(profile_app, cluster_a, cluster_a,
                                        wan, base_config, sweep.pool());
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = target_app.classes;
  opts.ipc = core::measure_ipc(cluster_a);
  const core::HeteroPredictor predictor(core::Predictor(base, opts), factors);

  const std::vector<NodeConfig> grid = paper_grid();
  const auto actuals = sweep.map(grid.size(), [&](std::size_t i) {
    return simulate(target_app, cluster_b, cluster_b, wan, grid[i], false,
                    sweep.pool());
  });

  util::Table table({"data-compute", "error", "T_exact(s)", "T_pred(s)"});
  util::Accumulator worst;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const NodeConfig cfg = grid[i];
    const auto& actual = actuals[i];
    const double exact = actual.timing.total.total();
    const auto target = target_config(
        base, cfg, target_app.dataset->total_virtual_bytes(), wan.per_link_Bps);
    const core::PredictedTime predicted_time = predictor.predict(target);
    const double predicted = predicted_time.total();
    const double err = util::relative_error(exact, predicted);
    worst.add(err);
    if (fig_obs.residuals != nullptr)
      fig_obs.residuals->add(core::make_residual_point(
          config_label(cfg), predicted_time, actual.timing.total));
    table.add_row({config_label(cfg), util::Table::pct(err),
                   util::Table::fmt(exact, 2), util::Table::fmt(predicted, 2)});
  }
  table.print(std::cout);
  std::cout << "\n  max error: " << util::Table::pct(worst.max()) << "\n\n";

  if (fig_obs.residuals != nullptr) {
    fig_obs.residuals->set_sweep(target_app.name);
    fig_obs.residuals->set_model("hetero-global-reduction");
  }
  traced_largest_run(fig_obs, target_app, cluster_b, wan, grid.back(),
                     sweep.pool());
}

}  // namespace fgp::bench
