// Extension E5: what the prediction model buys the middleware.
//
// The paper's opening claim: "for a middleware to perform resource
// allocation, prediction models are needed, which can determine how long
// an application will take". This bench quantifies that: a mixed stream
// of real FREERIDE-G jobs (k-means, EM, k-NN, vortex, defect) arrives at
// a two-site grid, and three allocation policies are compared —
// prediction-driven (argmin predicted completion), round-robin, and
// grab-the-most-nodes. Ground truth executions run on the virtual
// cluster; queueing is simulated with real reservations.
#include <iostream>

#include "common.h"
#include "service/scheduler.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace fgp;
  const auto pentium = sim::cluster_pentium_myrinet();

  service::ShardedCatalog catalog(1);
  catalog.register_repository_site({"repo", pentium, 8});
  catalog.register_compute_site({"hpc-small", pentium, 8});
  catalog.register_compute_site({"hpc-large", pentium, 16});
  catalog.register_link("repo", "hpc-small", sim::wan_mbps(800));
  catalog.register_link("repo", "hpc-large", sim::wan_mbps(200));

  std::cout << "Extension E5: prediction-driven scheduling vs model-blind "
               "policies (mixed 10-job stream, two compute sites)\n\n";

  // The application mix. Each app gets one dataset + one 1-1 profile.
  std::vector<bench::BenchApp> apps{
      bench::make_kmeans_app(700.0, 2.0, 42),
      bench::make_em_app(700.0, 2.0, 43),
      bench::make_knn_app(700.0, 2.0, 44),
      bench::make_vortex_app(700.0, 256, 45),
      bench::make_defect_app(260.0, 24, 24, 96, 46),
  };
  std::vector<core::Profile> profiles;
  for (auto& app : apps) {
    catalog.register_replica({app.name + "-data", "repo", 2});
    profiles.push_back(
        bench::profile_of(app, pentium, pentium, sim::wan_mbps(800), {1, 1}));
  }

  // A 10-job stream cycling through the apps, arriving every 20 seconds.
  std::vector<service::JobRequest> jobs;
  for (int i = 0; i < 10; ++i) {
    const auto k = static_cast<std::size_t>(i) % apps.size();
    service::JobRequest j;
    j.id = apps[k].name + "-" + std::to_string(i);
    j.app = profiles[k].app;
    j.dataset = apps[k].name + "-data";
    j.dataset_bytes = apps[k].dataset->total_virtual_bytes();
    j.submit_time_s = 20.0 * i;
    jobs.push_back(std::move(j));
  }

  // Ground truth: run the job's kernel on the candidate's resources.
  const auto topo = catalog.topology();
  auto runner = [&](const service::JobRequest& job,
                    const grid::Candidate& cand) {
    for (const auto& app : apps) {
      if (app.name + "-data" != job.dataset) continue;
      const auto* site = topo->find_compute(cand.compute_site);
      const auto* repo = topo->find_repository(cand.replica.repository);
      return bench::simulate(app, repo->cluster, site->cluster, cand.wan,
                             {cand.replica.storage_nodes, cand.compute_nodes})
          .timing.total.total();
    }
    throw util::Error("unknown job dataset " + job.dataset);
  };

  util::Table table({"policy", "makespan(s)", "mean turnaround(s)",
                     "mean |pred-actual|/actual"});
  for (const auto& [policy, name] :
       std::vector<std::pair<service::SchedulingPolicy, std::string>>{
           {service::SchedulingPolicy::PredictedBest, "predicted-best"},
           {service::SchedulingPolicy::RoundRobin, "round-robin"},
           {service::SchedulingPolicy::MaxNodes, "max-nodes"}}) {
    service::GridScheduler scheduler(&catalog, policy);
    for (std::size_t k = 0; k < apps.size(); ++k) {
      core::PredictorOptions opts;
      opts.model = core::PredictionModel::GlobalReduction;
      opts.classes = apps[k].classes;
      scheduler.register_app(profiles[k], opts);
    }
    const auto placements = scheduler.schedule(jobs, runner);
    util::Accumulator errs;
    for (const auto& p : placements)
      errs.add(util::relative_error(p.actual_exec_s, p.predicted_exec_s));
    table.add_row({name, util::Table::fmt(scheduler.makespan(), 1),
                   util::Table::fmt(scheduler.mean_turnaround(), 1),
                   util::Table::pct(errs.mean())});
  }
  table.print(std::cout);
  std::cout << "\n  Accurate per-configuration estimates let the middleware "
               "trade queue wait against parallelism: predicted-best wins "
               "decisively on makespan. (Greedy per-job optimization can "
               "still lose a little mean turnaround to policies that spread "
               "allocations by accident — scheduling on top of a perfect "
               "model remains a policy question.)\n\n";
  return 0;
}
