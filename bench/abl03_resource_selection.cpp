// Ablation A3: end-to-end resource selection quality.
//
// The whole point of the prediction model is picking the cheapest
// (replica, configuration) pair. This bench builds a small virtual grid
// (two repositories with different link qualities, two compute sites on
// different hardware), ranks every candidate with the selection service,
// then simulates every candidate to find the true optimum and reports the
// regret of the predicted choice.
#include <iostream>

#include "common.h"
#include "core/ipc_probe.h"
#include "service/selection_service.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace fgp;
  const auto app = bench::make_em_app(700.0, 2.0, 42);
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();

  std::cout << "Ablation A3: resource-selection quality (EM, 700 MB, two "
               "replicas x two compute sites)\n\n";

  service::ShardedCatalog catalog(1);
  catalog.register_repository_site({"repo-east", pentium, 8});
  catalog.register_repository_site({"repo-west", pentium, 4});
  catalog.register_compute_site({"hpc-pentium", pentium, 16});
  catalog.register_compute_site({"hpc-opteron", opteron, 16});
  catalog.register_link("repo-east", "hpc-pentium", sim::wan_mbps(80));
  catalog.register_link("repo-east", "hpc-opteron", sim::wan_mbps(20));
  catalog.register_link("repo-west", "hpc-pentium", sim::wan_mbps(30));
  catalog.register_link("repo-west", "hpc-opteron", sim::wan_mbps(60));
  catalog.register_replica({"em-data", "repo-east", 4});
  catalog.register_replica({"em-data", "repo-west", 2});

  // Profile on the Pentium cluster; scaling factors for the Opteron one.
  const core::Profile profile =
      bench::profile_of(app, pentium, pentium, sim::wan_mbps(80), {1, 1});
  std::vector<core::Profile> on_a, on_b;
  for (auto& rep : {bench::make_kmeans_app(350.0, 1.0, 43),
                    bench::make_knn_app(350.0, 1.0, 44),
                    bench::make_vortex_app(350.0, 192, 45)}) {
    on_a.push_back(
        bench::profile_of(rep, pentium, pentium, sim::wan_mbps(80), {2, 4}));
    on_b.push_back(
        bench::profile_of(rep, opteron, opteron, sim::wan_mbps(80), {2, 4}));
  }
  std::map<std::string, core::ScalingFactors> scalers;
  scalers[opteron.name] = core::compute_scaling_factors(on_a, on_b);

  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = app.classes;
  opts.ipc = core::measure_ipc(pentium);
  service::SelectionService selector(&catalog);
  selector.register_app(profile, opts, scalers);
  // The table below shows the eight cheapest candidates.
  const service::SelectionQuery query{
      profile.app, "em-data", app.dataset->total_virtual_bytes(), 8};
  const auto ranked = selector.query(query).ranked;

  // Ground truth by exhaustive simulation.
  struct Truth {
    std::string label;
    double actual;
  };
  std::vector<Truth> truths;
  double best_actual = 1e300;
  const auto topo = catalog.topology();
  for (const auto& cand : service::ShardedCatalog::enumerate_candidates(
           *topo, *catalog.shard_for("em-data"), "em-data")) {
    const auto* site = topo->find_compute(cand.compute_site);
    const auto* repo = topo->find_repository(cand.replica.repository);
    const auto run = bench::simulate(
        app, repo->cluster, site->cluster, cand.wan,
        {cand.replica.storage_nodes, cand.compute_nodes});
    const double t = run.timing.total.total();
    best_actual = std::min(best_actual, t);
    truths.push_back({cand.replica.repository + "/" + cand.compute_site +
                          "/" + std::to_string(cand.replica.storage_nodes) +
                          "-" + std::to_string(cand.compute_nodes),
                      t});
  }

  util::Table table({"rank", "candidate", "T_pred(s)", "T_actual(s)"});
  for (std::size_t i = 0; i < std::min<std::size_t>(ranked.size(), 8); ++i) {
    const auto& rc = ranked[i];
    const std::string label =
        rc.candidate.replica.repository + "/" + rc.candidate.compute_site +
        "/" + std::to_string(rc.candidate.replica.storage_nodes) + "-" +
        std::to_string(rc.candidate.compute_nodes);
    double actual = 0.0;
    for (const auto& t : truths)
      if (t.label == label) actual = t.actual;
    table.add_row({std::to_string(i + 1), label,
                   util::Table::fmt(rc.predicted.total(), 2),
                   util::Table::fmt(actual, 2)});
  }
  table.print(std::cout);

  const auto& chosen = ranked.front();
  double chosen_actual = 0.0;
  const std::string chosen_label =
      chosen.candidate.replica.repository + "/" +
      chosen.candidate.compute_site + "/" +
      std::to_string(chosen.candidate.replica.storage_nodes) + "-" +
      std::to_string(chosen.candidate.compute_nodes);
  for (const auto& t : truths)
    if (t.label == chosen_label) chosen_actual = t.actual;
  std::cout << "\n  predicted best: " << chosen_label << "  regret = "
            << util::Table::pct((chosen_actual - best_actual) /
                                best_actual)
            << " (0% means the selector picked the true optimum)\n\n";
  return 0;
}
