// fig-sweep — the paper's evaluation loop for Figure 2 (k-means, 1.4 GB
// virtual / 4 MB real, 10 passes, Pentium/Myrinet, 800 Mb/s WAN).
//
// One operation: collect the 1-1 profile, run the 14 paper_grid() exact
// runs concurrently through SweepRunner, and make the 42 predictions
// (3 models x 14 configurations) plus the global model's residuals. The
// data is in memory, so the repository and service layers sit idle; the
// kernels, the runtime, the simulator and the pool do the work.
#include <optional>

#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "core/residuals.h"
#include "harness.h"
#include "obs/residual.h"
#include "sweep.h"
#include "util/wallclock.h"

namespace fgp::perfbench {
namespace {

constexpr double kVirtualMb = 1400.0;
constexpr double kRealMb = 4.0;
constexpr int kPasses = 10;

/// Everything one operation produces, as comparable bytes.
struct SweepOutput {
  std::string profile;            ///< the 1-1 run
  std::vector<std::string> runs;  ///< one per grid configuration
  std::vector<double> predicted;  ///< 3 models x grid, model-major
  std::string residuals;          ///< fgpred-residuals-v1 of the global model

  bool operator==(const SweepOutput&) const = default;
};

class FigSweep final : public Workload {
 public:
  explicit FigSweep(const WorkloadContext& ctx)
      : ctx_(ctx),
        cluster_(sim::cluster_pentium_myrinet()),
        wan_(sim::wan_mbps(800.0)),
        grid_(bench::paper_grid()) {}

  SetupTimes setup() override {
    app_.reset();
    const util::Stopwatch sw;
    app_.emplace(bench::make_kmeans_app(kVirtualMb, kRealMb, ctx_.seed, kPasses));
    return {sw.seconds(), std::nullopt};
  }

  void build_reference() override { reference_ = run_op(nullptr, nullptr); }

  double op(const Hooks* hooks) override {
    const util::Stopwatch sw;
    last_ = run_op(ctx_.pool, hooks);
    return sw.seconds();
  }

  bool check() override { return last_ == reference_; }

  void serial_op() override { run_op(nullptr, nullptr); }

  void report(Report& out, const std::vector<double>& request_s) override {
    out.fact("sweep_p50_s", quantile(request_s, 0.50), "s");
    out.fact("sweep_p90_s", quantile(request_s, 0.90), "s");
    out.fact("grid_configs", static_cast<double>(grid_.size()), "count");
    out.fact("predict_calls_per_op", static_cast<double>(3 * grid_.size()),
             "count");
  }

  ProbeTarget probe_target() const override {
    return {&*app_, app_->dataset.get(), app_->dataset.get(), cluster_, wan_};
  }

  std::size_t max_traced_ops() const override { return 3; }

 private:
  /// The evaluation loop. `pool` null runs every layer serially (the
  /// reference); `hooks` non-null records layer spans and metrics.
  SweepOutput run_op(util::ThreadPool* pool, const Hooks* hooks) const {
    obs::TraceRecorder* trace = hooks != nullptr ? hooks->trace : nullptr;
    const auto kernel = [&] {
      auto k = app_->factory();
      return trace != nullptr ? traced_kernel(std::move(k), trace) : std::move(k);
    };
    const auto run = [&](bench::NodeConfig cfg) {
      auto setup = job_setup(*app_->dataset, cluster_, wan_, cfg.n, cfg.c);
      setup.metrics = hooks != nullptr ? hooks->metrics : nullptr;
      auto k = kernel();
      const obs::HostSpan span(trace, "freeride", "run");
      return freeride::Runtime(pool).run(setup, *k);
    };

    SweepOutput out;
    // Profile at 1-1: the runtime run, then the profile assembly.
    const auto profile_run = run({1, 1});
    out.profile = run_bytes(profile_run);
    core::Profile base;
    core::PredictorOptions opts;
    {
      const obs::HostSpan span(trace, "core", "profile");
      base = core::ProfileCollector::from_result(
          job_setup(*app_->dataset, cluster_, wan_, 1, 1), "kmeans",
          profile_run);
      opts.classes = app_->classes;
      opts.ipc = core::measure_ipc(cluster_);
    }

    // The exact runs, concurrently over the pool.
    const bench::SweepRunner sweep(pool);
    const auto actuals =
        sweep.map(grid_.size(), [&](std::size_t i) { return run(grid_[i]); });
    for (const auto& a : actuals) out.runs.push_back(run_bytes(a));

    // The three models at every configuration.
    {
      const obs::HostSpan span(trace, "core", "predict");
      obs::ResidualReport residuals("kmeans", "global-reduction");
      for (const auto model : {core::PredictionModel::NoCommunication,
                               core::PredictionModel::ReductionCommunication,
                               core::PredictionModel::GlobalReduction}) {
        opts.model = model;
        for (std::size_t i = 0; i < grid_.size(); ++i) {
          core::ProfileConfig target = base.config;
          target.data_nodes = grid_[i].n;
          target.compute_nodes = grid_[i].c;
          target.dataset_bytes = app_->dataset->total_virtual_bytes();
          target.bandwidth_Bps = wan_.per_link_Bps;
          const auto predicted = core::Predictor(base, opts).predict(target);
          out.predicted.push_back(predicted.total());
          if (model == core::PredictionModel::GlobalReduction)
            residuals.add(core::make_residual_point(
                std::to_string(grid_[i].n) + "-" + std::to_string(grid_[i].c),
                predicted, actuals[i].timing.total));
        }
      }
      out.residuals = residuals.to_json();
    }
    return out;
  }

  WorkloadContext ctx_;
  sim::ClusterSpec cluster_;
  sim::WanSpec wan_;
  std::vector<bench::NodeConfig> grid_;
  std::optional<bench::BenchApp> app_;
  SweepOutput reference_;
  SweepOutput last_;
};

}  // namespace

std::unique_ptr<Workload> make_fig_sweep(const WorkloadContext& ctx) {
  return std::make_unique<FigSweep>(ctx);
}

}  // namespace fgp::perfbench
