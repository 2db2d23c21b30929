#include "harness.h"

#include <algorithm>
#include <thread>

#if defined(__unix__)
#include <sched.h>
#include <sys/resource.h>
#endif

#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "freeride/runtime.h"
#include "repository/store.h"
#include "util/check.h"
#include "util/serial.h"

namespace fgp::perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

unsigned host_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
#if defined(__unix__)
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // Linux: KiB
#else
  return 0.0;
#endif
}

namespace {

class TracedKernel final : public freeride::ReductionKernel {
 public:
  TracedKernel(std::unique_ptr<freeride::ReductionKernel> inner,
               obs::TraceRecorder* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<freeride::ReductionObject> create_object() const override {
    return inner_->create_object();
  }
  sim::Work process_chunk(const repository::Chunk& chunk,
                          freeride::ReductionObject& obj) const override {
    const obs::HostSpan span(trace_, "apps", "process_chunk");
    return inner_->process_chunk(chunk, obj);
  }
  sim::Work merge(freeride::ReductionObject& into,
                  const freeride::ReductionObject& other) const override {
    const obs::HostSpan span(trace_, "apps", "merge");
    return inner_->merge(into, other);
  }
  sim::Work global_reduce(freeride::ReductionObject& merged,
                          bool& more_passes) override {
    const obs::HostSpan span(trace_, "apps", "global_reduce");
    return inner_->global_reduce(merged, more_passes);
  }
  double broadcast_bytes() const override { return inner_->broadcast_bytes(); }
  bool reduction_object_scales_with_data() const override {
    return inner_->reduction_object_scales_with_data();
  }

 private:
  std::unique_ptr<freeride::ReductionKernel> inner_;
  obs::TraceRecorder* trace_;
};

class TracedSource final : public repository::ChunkSource {
 public:
  TracedSource(std::shared_ptr<const repository::ChunkSource> inner,
               obs::TraceRecorder* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  repository::Chunk fetch(std::size_t index) const override {
    const obs::HostSpan span(trace_, "repository", "fetch");
    return inner_->fetch(index);
  }
  void prefetch(std::size_t index) const override {
    const obs::HostSpan span(trace_, "repository", "prefetch");
    inner_->prefetch(index);
  }

 private:
  std::shared_ptr<const repository::ChunkSource> inner_;
  obs::TraceRecorder* trace_;
};

}  // namespace

std::unique_ptr<freeride::ReductionKernel> traced_kernel(
    std::unique_ptr<freeride::ReductionKernel> inner,
    obs::TraceRecorder* trace) {
  return std::make_unique<TracedKernel>(std::move(inner), trace);
}

repository::ChunkedDataset traced_source_view(
    const repository::ChunkedDataset& ds, obs::TraceRecorder* trace) {
  FGP_CHECK_MSG(ds.streamed(), "traced_source_view needs a streamed dataset");
  repository::ChunkedDataset view = ds;
  view.attach_source(std::make_shared<const TracedSource>(ds.source(), trace));
  return view;
}

repository::ChunkedDataset replicate_dataset(
    const repository::ChunkedDataset& base, std::size_t factor,
    const std::string& name) {
  repository::DatasetMeta meta = base.meta();
  meta.name = name;
  repository::ChunkedDataset out(meta);
  repository::ChunkId next = 0;
  for (std::size_t rep = 0; rep < factor; ++rep)
    for (const auto& c : base.chunks())
      out.add_chunk(
          repository::Chunk(next++, c.payload_buffer(), c.virtual_scale()));
  return out;
}

freeride::JobSetup job_setup(const repository::ChunkedDataset& ds,
                             const sim::ClusterSpec& cluster,
                             const sim::WanSpec& wan, int n, int c) {
  freeride::JobSetup setup;
  setup.dataset = &ds;
  setup.data_cluster = cluster;
  setup.compute_cluster = cluster;
  setup.wan = wan;
  setup.config.data_nodes = n;
  setup.config.compute_nodes = c;
  return setup;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string run_bytes(const freeride::RunResult& r) {
  util::ByteWriter w;
  const auto put = [&w](const freeride::TimingBreakdown& t) {
    for (double v :
         {t.disk, t.network, t.compute_local, t.ro_comm, t.global_red})
      w.put_f64(v);
  };
  w.put_f64(r.timing.elapsed);
  w.put_f64(r.timing.max_object_bytes);
  put(r.timing.total);
  for (const auto& p : r.timing.passes) {
    put(p.timing);
    w.put_f64(p.elapsed);
    w.put_f64(p.max_object_bytes);
  }
  w.put_u64(static_cast<std::uint64_t>(r.passes));
  r.result->serialize(w);
  const auto& b = w.bytes();
  return std::string(b.begin(), b.end());
}

void run_probes(const ProbeTarget& target, util::ThreadPool* pool,
                const std::filesystem::path& work_dir, Report& out) {
  const bench::BenchApp& app = *target.app;
  const repository::ChunkedDataset& mem = *app.dataset;
  const repository::ChunkedDataset& job = *target.job_dataset;
  const double real_mb = static_cast<double>(mem.total_real_bytes()) / 1e6;

  // apps: the kernel alone, one thread, over the in-memory chunks.
  const auto kernel = app.factory();
  const double kernel_s = median_seconds(5, [&] {
    auto obj = kernel->create_object();
    for (const auto& chunk : mem.chunks()) kernel->process_chunk(chunk, *obj);
  });
  out.metric("apps.kmeans.process_MBps", real_mb / kernel_s, "MB/s");

  // freeride: pooled runs at the profile and the largest configuration,
  // and the serial 1-1 run against passes x the kernel-only sweep.
  const auto run = [&](util::ThreadPool* p, int n, int c) {
    auto k = app.factory();
    return freeride::Runtime(p).run(
        job_setup(job, target.cluster, target.wan, n, c), *k);
  };
  int passes = 0;
  out.metric("freeride.run_s.profile",
             median_seconds(3, [&] { passes = run(pool, 1, 1).passes; }), "s");
  out.metric("freeride.run_s.largest",
             median_seconds(3, [&] { run(pool, 8, 16); }), "s");
  const double serial_s = median_seconds(3, [&] { run(nullptr, 1, 1); });
  out.metric("freeride.run_overhead_ratio",
             serial_s * mem.total_real_bytes() /
                 (std::max(1, passes) * kernel_s * job.total_real_bytes()),
             "ratio");

  // core: profile collection and the predictor.
  core::Profile profile;
  out.metric("core.profile_collect_s", median_seconds(3, [&] {
               auto k = app.factory();
               profile = core::ProfileCollector::collect(
                   job_setup(job, target.cluster, target.wan, 1, 1), *k,
                   pool);
             }),
             "s");
  core::PredictorOptions opts;
  opts.classes = app.classes;
  opts.ipc = core::measure_ipc(target.cluster);
  const core::Predictor predictor(profile, opts);
  core::ProfileConfig cfg = profile.config;
  constexpr int kPredictCalls = 200000;
  double sink = 0.0;
  const double predict_s = median_seconds(3, [&] {
    for (int i = 0; i < kPredictCalls; ++i) {
      cfg.data_nodes = 1 + (i & 7);
      cfg.compute_nodes = cfg.data_nodes * (1 + ((i >> 3) & 1));
      sink += predictor.predict(cfg).total();
    }
  });
  FGP_CHECK_MSG(sink > 0.0, "predictor returned no time");
  out.metric("core.predict_ns", predict_s / kPredictCalls * 1e9, "ns");

  // repository: a materializing scan of the job's dataset, and a store
  // round trip of it.
  double scanned = 0.0;
  const double scan_s = median_seconds(5, [&] {
    for (std::size_t i = 0; i < job.chunk_count(); ++i)
      scanned += static_cast<double>(job.materialize(i).payload().size());
  });
  FGP_CHECK_MSG(scanned > 0.0, "scan read nothing");
  out.metric("repository.scan_MBps",
             static_cast<double>(job.total_real_bytes()) / 1e6 / scan_s,
             "MB/s");

  const repository::DatasetStore store(work_dir / "probe-store");
  repository::ChunkedDataset copy = *target.resident_job;
  copy.meta().name = "probe";
  const double save_s = median_seconds(3, [&] { store.save(copy); });
  out.metric("repository.save_MBps",
             static_cast<double>(job.total_real_bytes()) / 1e6 / save_s,
             "MB/s");
  out.metric("repository.open_streamed_s",
             median_seconds(3, [&] { store.load_streamed("probe"); }), "s");
  store.remove("probe");
}

}  // namespace fgp::perfbench
