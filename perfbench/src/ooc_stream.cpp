// ooc-stream — one k-means job over a dataset 12.5x larger than the
// streaming window budget.
//
// The dataset is a seeded 40000x8 point set replicated 40 times on disk
// (about 100 MB real) and opened with DatasetStore::load_streamed at the
// default StreamConfig (8 MiB budget, 256 KiB windows). One operation is
// one Runtime::run of k-means (k=8, 2 passes) at the 4-8 configuration:
// window mapping, recycling and the per-fetch checksum dominate, and the
// kernel is one cheap pass per chunk. The streamed reduction object and
// timings must equal a serial run over the in-memory dataset.
#include <optional>

#include "apps/kmeans.h"
#include "datagen/points.h"
#include "freeride/runtime.h"
#include "harness.h"
#include "repository/store.h"
#include "util/wallclock.h"

namespace fgp::perfbench {
namespace {

constexpr std::uint64_t kPoints = 40000;
constexpr std::uint64_t kPointsPerChunk = 4000;
constexpr std::size_t kReplicas = 40;
constexpr int kPasses = 2;
constexpr int kDataNodes = 4;
constexpr int kComputeNodes = 8;
const char* const kName = "points-x40";

class OocStream final : public Workload {
 public:
  explicit OocStream(const WorkloadContext& ctx)
      : ctx_(ctx),
        cluster_(sim::cluster_pentium_myrinet()),
        wan_(sim::wan_mbps(800.0)),
        store_(ctx.work_dir / "ooc-store") {}

  SetupTimes setup() override {
    streamed_.reset();
    traced_.reset();
    app_.reset();
    resident_.reset();
    const util::Stopwatch sw;
    datagen::PointsSpec spec;
    spec.num_points = kPoints;
    spec.dim = 8;
    spec.points_per_chunk = kPointsPerChunk;
    spec.num_components = 8;
    spec.seed = ctx_.seed;
    spec.name = "points";
    auto generated =
        std::make_shared<datagen::PointsDataset>(datagen::generate_points(spec));
    bench::BenchApp app;
    app.name = "kmeans";
    app.dataset = std::shared_ptr<repository::ChunkedDataset>(
        generated, &generated->dataset);
    apps::KMeansParams params;
    params.k = 8;
    params.dim = 8;
    params.initial_centers =
        apps::initial_centers_from_dataset(generated->dataset, 8, 8);
    params.fixed_passes = kPasses;
    app.factory = [params] {
      return std::make_unique<apps::KMeansKernel>(params);
    };
    app.classes = {core::RoSizeClass::Constant,
                   core::GlobalReductionClass::LinearConstant};
    app_.emplace(std::move(app));
    resident_.emplace(replicate_dataset(*app_->dataset, kReplicas, kName));
    const double datagen_s = sw.seconds();

    store_.save(*resident_);
    streamed_.emplace(store_.load_streamed(kName));
    return {datagen_s, std::nullopt};
  }

  void build_reference() override {
    auto k = app_->factory();
    reference_ = run_bytes(freeride::Runtime().run(
        job_setup(*resident_, cluster_, wan_, kDataNodes, kComputeNodes), *k));
  }

  void prepare_tracing(const Hooks& hooks) override {
    const repository::DatasetStore store(store_.root(), hooks.trace,
                                         hooks.metrics);
    traced_.emplace(traced_source_view(store.load_streamed(kName), hooks.trace));
  }

  double op(const Hooks* hooks) override {
    const util::Stopwatch sw;
    last_ = run(ctx_.pool, hooks);
    return sw.seconds();
  }

  bool check() override { return last_ == reference_; }

  void serial_op() override { run(nullptr, nullptr); }

  void report(Report& out, const std::vector<double>& request_s) override {
    const double bytes = static_cast<double>(resident_->total_real_bytes());
    out.fact("stream_MBps", bytes * kPasses / 1e6 / median(request_s), "MB/s");
    out.fact("stream_job_p90_s", quantile(request_s, 0.90), "s");
    out.fact("dataset_real_MB", bytes / 1e6, "MB");
    out.fact("chunks", static_cast<double>(resident_->chunk_count()), "count");
    out.fact("budget_MiB",
             static_cast<double>(repository::StreamConfig{}.budget_bytes) /
                 (1 << 20),
             "MiB");
  }

  ProbeTarget probe_target() const override {
    return {&*app_, &*streamed_, &*resident_, cluster_, wan_};
  }

  std::size_t max_traced_ops() const override { return 5; }

  ~OocStream() override {
    streamed_.reset();
    traced_.reset();
    store_.remove(kName);
  }

 private:
  std::string run(util::ThreadPool* pool, const Hooks* hooks) const {
    obs::TraceRecorder* trace = hooks != nullptr ? hooks->trace : nullptr;
    const repository::ChunkedDataset& ds =
        hooks != nullptr ? *traced_ : *streamed_;
    auto setup = job_setup(ds, cluster_, wan_, kDataNodes, kComputeNodes);
    setup.metrics = hooks != nullptr ? hooks->metrics : nullptr;
    auto k = app_->factory();
    if (trace != nullptr) k = traced_kernel(std::move(k), trace);
    const obs::HostSpan span(trace, "freeride", "run");
    return run_bytes(freeride::Runtime(pool).run(setup, *k));
  }

  WorkloadContext ctx_;
  sim::ClusterSpec cluster_;
  sim::WanSpec wan_;
  repository::DatasetStore store_;
  std::optional<bench::BenchApp> app_;
  std::optional<repository::ChunkedDataset> resident_;
  std::optional<repository::ChunkedDataset> streamed_;
  std::optional<repository::ChunkedDataset> traced_;
  std::string reference_;
  std::string last_;
};

}  // namespace

std::unique_ptr<Workload> make_ooc_stream(const WorkloadContext& ctx) {
  return std::make_unique<OocStream>(ctx);
}

}  // namespace fgp::perfbench
