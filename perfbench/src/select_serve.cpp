// select-serve — a closed-loop client of the selection service.
//
// The ShardedCatalog holds 1,000,000 replica entries (400k datasets at 1-4
// replicas, 64 shards, 8 repositories, 12 compute sites). App profiles for
// em, kmeans and knn come from real 1-1 runs collected during set-up. One
// operation is one client round: a batch of 256 seeded mixed queries
// through query_batch (evaluated on the pool), then one register_replica
// for a new dataset that is never queried — a copy-on-publish of one
// ~15.6k-entry shard beside the reads. Every batch's rankings must be
// bit-equal to a serial-evaluate service over the same catalog.
//
// make_service_probe() builds the same client at 4,000 datasets: the other
// workloads' traced runs measure the service layer with it.
#include "core/ipc_probe.h"
#include "core/profile.h"
#include "harness.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/wallclock.h"

namespace fgp::perfbench {
namespace {

constexpr std::size_t kDatasets = 400000;
constexpr std::size_t kProbeDatasets = 4000;
constexpr std::size_t kShards = 64;
constexpr int kRepos = 8;
constexpr int kSites = 12;
constexpr std::size_t kBatchSize = 256;
/// Distinct batches; rounds cycle through them so every batch has a
/// precomputed serial reference.
constexpr std::size_t kBatches = 256;
constexpr std::size_t kProbeBatches = 16;

std::string dataset_name(std::size_t i) { return "ds-" + std::to_string(i); }
std::string repo_name(std::size_t r) { return "repo-" + std::to_string(r); }

/// Bit-level digest of a batch's answers: errors, candidate counts, and
/// every ranked candidate's identity and predicted component times.
std::uint64_t digest(const std::vector<service::SelectionResult>& results) {
  std::uint64_t h = fnv1a(nullptr, 0);
  const auto str = [&h](const std::string& s) {
    h = fnv1a(s.data(), s.size() + 1, h);  // include the terminator
  };
  const auto num = [&h](auto v) { h = fnv1a(&v, sizeof v, h); };
  for (const auto& r : results) {
    str(r.error);
    num(r.candidates_considered);
    for (const auto& rc : r.ranked) {
      str(rc.candidate.replica.dataset);
      str(rc.candidate.replica.repository);
      num(rc.candidate.replica.storage_nodes);
      str(rc.candidate.compute_site);
      num(rc.candidate.compute_nodes);
      num(rc.used_hetero_scaling);
      for (double v : {rc.predicted.disk, rc.predicted.network,
                       rc.predicted.compute, rc.predicted.compute_local,
                       rc.predicted.ro_comm, rc.predicted.global_red})
        num(v);
    }
  }
  return h;
}

class SelectServe final : public Workload {
 public:
  SelectServe(const WorkloadContext& ctx, std::size_t datasets,
              std::size_t batches)
      : ctx_(ctx),
        datasets_(datasets),
        batch_count_(batches),
        pentium_(sim::cluster_pentium_myrinet()),
        wan_(sim::wan_mbps(800.0)) {}

  SetupTimes setup() override {
    traced_svc_.reset();
    serial_svc_.reset();
    svc_.reset();
    catalog_.reset();
    apps_.clear();
    profiles_.clear();
    published_ = 0;

    // The catalog: sites, links, then the replica table in one bulk load.
    catalog_ = std::make_unique<service::ShardedCatalog>(kShards);
    const auto opteron = sim::cluster_opteron_infiniband();
    for (int r = 0; r < kRepos; ++r)
      catalog_->register_repository_site({repo_name(r), pentium_, 8});
    for (int c = 0; c < kSites; ++c)
      catalog_->register_compute_site(
          {"hpc-" + std::to_string(c), c % 2 == 0 ? pentium_ : opteron, 16});
    for (int r = 0; r < kRepos; ++r)
      for (int c = 0; c < kSites; ++c)
        if ((r + c) % 4 != 0)  // some repository/site pairs unreachable
          catalog_->register_link(repo_name(r), "hpc-" + std::to_string(c),
                                  sim::wan_mbps(10.0 + 5.0 * ((r + 3 * c) % 9)));
    std::vector<grid::Replica> replicas;
    replicas.reserve(datasets_ * 5 / 2);
    for (std::size_t d = 0; d < datasets_; ++d) {
      const std::size_t copies = 1 + d % 4;  // mean 2.5 replicas per dataset
      for (std::size_t r = 0; r < copies; ++r)
        replicas.push_back({dataset_name(d),
                            repo_name((d + 3 * r + ctx_.seed) % kRepos),
                            1 << ((d + ctx_.seed) % 3)});
    }
    util::Stopwatch sw;
    catalog_->register_replicas(std::move(replicas));
    const double register_s = sw.seconds();

    // Profiles from real 1-1 runs of the three applications.
    sw.reset();
    apps_.push_back(bench::make_em_app(350.0, 1.0, ctx_.seed, 2));
    apps_.push_back(bench::make_kmeans_app(350.0, 1.0, ctx_.seed + 1, 2));
    apps_.push_back(bench::make_knn_app(350.0, 1.0, ctx_.seed + 2));
    const double datagen_s = sw.seconds();
    for (const auto& app : apps_) {
      auto k = app.factory();
      profiles_.push_back(core::ProfileCollector::collect(
          job_setup(*app.dataset, pentium_, wan_, 1, 1), *k, ctx_.pool));
    }
    svc_ = make_service(ctx_.pool, nullptr);

    if (batches_.empty()) make_batches();
    return {datagen_s, register_s};
  }

  void build_reference() override {
    serial_svc_ = make_service(nullptr, nullptr);
    reference_.clear();
    for (const auto& batch : batches_)
      reference_.push_back(digest(serial_svc_->query_batch(batch)));
    publish_s_.clear();
    round_ = 0;
  }

  void prepare_tracing(const Hooks& hooks) override {
    traced_svc_ = make_service(ctx_.pool, hooks.metrics);
    traced_svc_->query_batch(batches_.front());  // compile the profile cache
    service::ServiceObservers observers;
    observers.trace = hooks.trace;
    traced_svc_->set_observers(observers);
    candidates_ = 0;
    queries_ = 0;
  }

  double op(const Hooks* hooks) override {
    obs::TraceRecorder* trace = hooks != nullptr ? hooks->trace : nullptr;
    const service::SelectionService& svc =
        hooks != nullptr ? *traced_svc_ : *svc_;
    batch_index_ = round_++ % batch_count_;
    util::Stopwatch sw;
    {
      const obs::HostSpan span(trace, "service", "query_batch");
      last_ = svc.query_batch(batches_[batch_index_]);
    }
    const double batch_s = sw.seconds();
    sw.reset();
    {
      const obs::HostSpan span(trace, "service", "publish");
      publish();
    }
    publish_s_.push_back(sw.seconds());
    if (hooks != nullptr) {
      for (const auto& r : last_) candidates_ += r.candidates_considered;
      queries_ += last_.size();
    }
    return batch_s;
  }

  bool check() override {
    for (const auto& r : last_)
      if (!r.ok()) return false;
    return digest(last_) == reference_[batch_index_];
  }

  void serial_op() override {
    const std::vector<service::SelectionResult> r =
        serial_svc_->query_batch(batches_[round_++ % batch_count_]);
    FGP_CHECK(r.size() == kBatchSize);
    publish();
  }

  void report(Report& out, const std::vector<double>& request_s) override {
    double batch_total = 0.0;
    for (double s : request_s) batch_total += s;
    out.fact("queries_per_s",
             static_cast<double>(request_s.size() * kBatchSize) / batch_total,
             "1/s");
    out.fact("batch_p50_ms", quantile(request_s, 0.50) * 1e3, "ms");
    out.fact("batch_p99_ms", quantile(request_s, 0.99) * 1e3, "ms");
    out.fact("publish_p50_us", quantile(publish_s_, 0.50) * 1e6, "us");
    out.fact("replica_entries", static_cast<double>(catalog_->replica_count()),
             "count");
  }

  void report_traced(Report& out) override {
    out.metric("service.candidates_per_query",
               ratio(static_cast<double>(candidates_),
                     static_cast<double>(queries_)),
               "count");
  }

  ProbeTarget probe_target() const override {
    const bench::BenchApp& kmeans = apps_[1];
    return {&kmeans, kmeans.dataset.get(), kmeans.dataset.get(), pentium_, wan_};
  }

  std::size_t max_traced_ops() const override { return 64; }

 private:
  std::unique_ptr<service::SelectionService> make_service(
      util::ThreadPool* pool, obs::Registry* metrics) const {
    auto svc = std::make_unique<service::SelectionService>(catalog_.get(), pool,
                                                           metrics);
    const std::map<std::string, core::ScalingFactors> scalers = {
        {"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      core::PredictorOptions opts;
      opts.model = core::PredictionModel::GlobalReduction;
      opts.classes = apps_[i].classes;
      opts.ipc = core::measure_ipc(pentium_);
      svc->register_app(profiles_[i], opts, scalers);
    }
    return svc;
  }

  /// Registers one replica of a dataset no query names.
  void publish() {
    catalog_->register_replica({"pub-" + std::to_string(published_),
                                repo_name(published_ % kRepos), 1});
    ++published_;
  }

  void make_batches() {
    const char* apps[] = {"em", "kmeans", "knn"};
    util::Rng rng(ctx_.seed);
    batches_.resize(batch_count_);
    for (auto& batch : batches_) {
      batch.reserve(kBatchSize);
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        service::SelectionQuery q;
        q.app = apps[rng.next_below(3)];
        q.dataset = dataset_name(rng.next_below(datasets_));
        q.dataset_bytes = rng.uniform(100e6, 4e9);
        q.top_k = 1 + static_cast<int>(rng.next_below(8));
        batch.push_back(std::move(q));
      }
    }
  }

  WorkloadContext ctx_;
  std::size_t datasets_;
  std::size_t batch_count_;
  sim::ClusterSpec pentium_;
  sim::WanSpec wan_;
  std::unique_ptr<service::ShardedCatalog> catalog_;
  std::vector<bench::BenchApp> apps_;
  std::vector<core::Profile> profiles_;
  std::unique_ptr<service::SelectionService> svc_;
  std::unique_ptr<service::SelectionService> traced_svc_;
  std::unique_ptr<service::SelectionService> serial_svc_;
  std::vector<std::vector<service::SelectionQuery>> batches_;
  std::vector<std::uint64_t> reference_;
  std::vector<service::SelectionResult> last_;
  std::size_t batch_index_ = 0;
  std::size_t round_ = 0;
  std::size_t published_ = 0;
  std::vector<double> publish_s_;
  std::size_t candidates_ = 0;
  std::size_t queries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_select_serve(const WorkloadContext& ctx) {
  return std::make_unique<SelectServe>(ctx, kDatasets, kBatches);
}

std::unique_ptr<Workload> make_service_probe(const WorkloadContext& ctx) {
  return std::make_unique<SelectServe>(ctx, kProbeDatasets, kProbeBatches);
}

}  // namespace fgp::perfbench
