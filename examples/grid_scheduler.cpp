// grid_scheduler — using the prediction framework for what the paper built
// it for: dynamic resource allocation. A stream of mining jobs (k-means
// and vortex detection) arrives at a small grid; the scheduler costs every
// (replica, site, node-count) placement with the model, accounts for queue
// waits, and commits the cheapest predicted completion. The final table
// shows each job's placement, its predicted vs actual execution time, and
// how long it waited.
#include <iostream>

#include "apps/kmeans.h"
#include "apps/vortex.h"
#include "core/profile.h"
#include "datagen/flowfield.h"
#include "datagen/points.h"
#include "freeride/runtime.h"
#include "service/scheduler.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace fgp;

core::Profile collect_profile(const repository::ChunkedDataset& ds,
                              freeride::ReductionKernel& kernel,
                              const sim::ClusterSpec& cluster) {
  freeride::JobSetup setup;
  setup.dataset = &ds;
  setup.data_cluster = cluster;
  setup.compute_cluster = cluster;
  setup.wan = sim::wan_mbps(800.0);
  setup.config.data_nodes = 1;
  setup.config.compute_nodes = 1;
  return core::ProfileCollector::collect(setup, kernel);
}

}  // namespace

int main() {
  const auto pentium = sim::cluster_pentium_myrinet();

  // Two applications with their datasets.
  auto pts_spec = datagen::scaled_points_spec(700.0, 2.0, 8, 42);
  pts_spec.num_components = 8;
  const auto points = datagen::generate_points(pts_spec);

  datagen::FlowSpec flow_spec;
  flow_spec.width = 256;
  flow_spec.height = 256;
  flow_spec.rows_per_chunk = 4;
  flow_spec.virtual_scale =
      500e6 / (256.0 * 256.0 * sizeof(datagen::Vec2f) * 1.5);
  const auto flow = datagen::generate_flowfield(flow_spec);

  apps::KMeansParams km;
  km.k = 8;
  km.dim = 8;
  km.initial_centers = apps::initial_centers_from_dataset(points.dataset, 8, 8);
  km.fixed_passes = 10;
  apps::VortexParams vx;

  // The grid: one repository, two compute sites.
  service::ShardedCatalog catalog(1);
  catalog.register_repository_site({"repo", pentium, 4});
  catalog.register_compute_site({"site-a", pentium, 8});
  catalog.register_compute_site({"site-b", pentium, 16});
  catalog.register_link("repo", "site-a", sim::wan_mbps(800));
  catalog.register_link("repo", "site-b", sim::wan_mbps(200));
  catalog.register_replica({"points", "repo", 2});
  catalog.register_replica({"flow", "repo", 2});

  // Profiles (one run each at 1-1).
  apps::KMeansKernel km_profile_kernel(km);
  const auto km_profile =
      collect_profile(points.dataset, km_profile_kernel, pentium);
  apps::VortexKernel vx_profile_kernel(vx);
  const auto vx_profile =
      collect_profile(flow.dataset, vx_profile_kernel, pentium);

  // The scheduler predicts each job from its app's profile and classes.
  service::GridScheduler scheduler(&catalog,
                                   service::SchedulingPolicy::PredictedBest);
  core::PredictorOptions km_opts;
  km_opts.classes = {core::RoSizeClass::Constant,
                     core::GlobalReductionClass::LinearConstant};
  scheduler.register_app(km_profile, km_opts);
  core::PredictorOptions vx_opts;
  vx_opts.classes = {core::RoSizeClass::LinearWithData,
                     core::GlobalReductionClass::ConstantLinear};
  scheduler.register_app(vx_profile, vx_opts);

  // A six-job stream alternating between the two applications.
  std::vector<service::JobRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    service::JobRequest j;
    const bool is_kmeans = i % 2 == 0;
    j.id = (is_kmeans ? "kmeans-" : "vortex-") + std::to_string(i);
    j.app = is_kmeans ? km_profile.app : vx_profile.app;
    j.dataset = is_kmeans ? "points" : "flow";
    j.dataset_bytes = is_kmeans ? points.dataset.total_virtual_bytes()
                                : flow.dataset.total_virtual_bytes();
    j.submit_time_s = 15.0 * i;
    jobs.push_back(std::move(j));
  }

  // Ground truth: actually run the job on the chosen resources.
  const auto topo = catalog.topology();
  auto runner = [&](const service::JobRequest& job, const grid::Candidate& c) {
    freeride::JobSetup setup;
    setup.dataset = job.dataset == "points" ? &points.dataset : &flow.dataset;
    setup.data_cluster = topo->find_repository(c.replica.repository)->cluster;
    setup.compute_cluster = topo->find_compute(c.compute_site)->cluster;
    setup.wan = c.wan;
    setup.config.data_nodes = c.replica.storage_nodes;
    setup.config.compute_nodes = c.compute_nodes;
    if (job.dataset == "points") {
      apps::KMeansKernel kernel(km);
      return freeride::Runtime().run(setup, kernel).timing.total.total();
    }
    apps::VortexKernel kernel(vx);
    return freeride::Runtime().run(setup, kernel).timing.total.total();
  };

  const auto placements = scheduler.schedule(jobs, runner);

  util::Table table({"job", "site", "nodes", "wait(s)", "T_pred(s)",
                     "T_actual(s)", "err"});
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    table.add_row(
        {p.job_id, p.candidate.compute_site,
         std::to_string(p.candidate.compute_nodes),
         util::Table::fmt(p.start_s - jobs[i].submit_time_s, 1),
         util::Table::fmt(p.predicted_exec_s, 1),
         util::Table::fmt(p.actual_exec_s, 1),
         util::Table::pct(
             util::relative_error(p.actual_exec_s, p.predicted_exec_s))});
  }
  table.print(std::cout);
  std::cout << "\nmakespan " << util::Table::fmt(scheduler.makespan(), 1)
            << "s, mean turnaround "
            << util::Table::fmt(scheduler.mean_turnaround(), 1) << "s\n";
  return 0;
}
