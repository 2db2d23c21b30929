// resource_selection — the scenario the paper's middleware exists for:
// a dataset replicated at two repositories, two candidate compute sites,
// and a resource-selection framework that must pick the (replica,
// configuration) pair with the minimum predicted cost.
#include <iostream>
#include <limits>

#include "apps/vortex.h"
#include "core/profile.h"
#include "datagen/flowfield.h"
#include "freeride/runtime.h"
#include "service/selection_service.h"
#include "util/table.h"

int main() {
  using namespace fgp;

  // The dataset: a 710 MB (virtual) CFD snapshot for vortex mining.
  datagen::FlowSpec spec;
  spec.width = 256;
  spec.height = 256;
  spec.rows_per_chunk = 4;
  spec.seed = 7;
  spec.name = "cfd-run-0042";
  spec.virtual_scale = 710e6 / (256.0 * 256.0 * sizeof(datagen::Vec2f));
  const auto flow = datagen::generate_flowfield(spec);

  // The grid: two repositories holding replicas, one compute site.
  const auto pentium = sim::cluster_pentium_myrinet();
  service::ShardedCatalog catalog(1);
  catalog.register_repository_site({"storage-a", pentium, 8});
  catalog.register_repository_site({"storage-b", pentium, 4});
  catalog.register_compute_site({"hpc", pentium, 16});
  catalog.register_link("storage-a", "hpc", sim::wan_mbps(40));   // far, slow
  catalog.register_link("storage-b", "hpc", sim::wan_mbps(120));  // near, fast
  catalog.register_replica({spec.name, "storage-a", 8});
  catalog.register_replica({spec.name, "storage-b", 2});

  // One profile run of the application (1 data node, 1 compute node).
  apps::VortexParams params;
  freeride::JobSetup profile_setup;
  profile_setup.dataset = &flow.dataset;
  profile_setup.data_cluster = pentium;
  profile_setup.compute_cluster = pentium;
  profile_setup.wan = sim::wan_mbps(40);
  profile_setup.config.data_nodes = 1;
  profile_setup.config.compute_nodes = 1;
  apps::VortexKernel profile_kernel(params);
  const core::Profile profile =
      core::ProfileCollector::collect(profile_setup, profile_kernel);

  // Rank every (replica, configuration) candidate.
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = {core::RoSizeClass::LinearWithData,
                  core::GlobalReductionClass::ConstantLinear};
  service::SelectionService selector(&catalog);
  selector.register_app(profile, opts);
  const service::SelectionQuery query{profile.app, spec.name,
                                      flow.dataset.total_virtual_bytes(),
                                      std::numeric_limits<int>::max()};
  const auto ranked = selector.query(query).ranked;

  util::Table table({"rank", "replica", "storage", "compute", "T_pred(s)"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& rc = ranked[i];
    table.add_row({std::to_string(i + 1), rc.candidate.replica.repository,
                   std::to_string(rc.candidate.replica.storage_nodes),
                   std::to_string(rc.candidate.compute_nodes),
                   util::Table::fmt(rc.predicted.total(), 2)});
  }
  table.print(std::cout);

  // Execute the winner and report what actually happened.
  const auto& best = ranked.front();
  const auto topo = catalog.topology();
  freeride::JobSetup winner;
  winner.dataset = &flow.dataset;
  winner.data_cluster =
      topo->find_repository(best.candidate.replica.repository)->cluster;
  winner.compute_cluster =
      topo->find_compute(best.candidate.compute_site)->cluster;
  winner.wan = best.candidate.wan;
  winner.config.data_nodes = best.candidate.replica.storage_nodes;
  winner.config.compute_nodes = best.candidate.compute_nodes;
  apps::VortexKernel run_kernel(params);
  const auto result = freeride::Runtime().run(winner, run_kernel);
  const auto& vortices =
      dynamic_cast<const apps::VortexObject&>(*result.result).vortices;

  std::cout << "\nselected " << best.candidate.replica.repository << " with "
            << best.candidate.compute_nodes << " compute nodes; actual time "
            << util::Table::fmt(result.timing.total.total(), 2)
            << "s (predicted " << util::Table::fmt(best.predicted.total(), 2)
            << "s); " << vortices.size() << " vortices mined\n";
  return 0;
}
