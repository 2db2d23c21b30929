// fgpred — command-line driver for the FREERIDE-G prediction framework.
//
//   fgpred probe   [pentium|opteron]         measure IPC + show machine model
//   fgpred predict <app> <n-c> <n-c> [opts]  profile first config, predict
//                                            second, verify by simulation
//   fgpred sweep   <app> [opts]              the full Figure-2-style grid
//   fgpred select                            resource-selection demo grid
//   fgpred plan-cache <passes>               cache-site planning demo
//
// Options: --virtual-mb=<double>  --wan-mbps=<double>
//          --model=none|ro|global  --threads=<int>
// Apps: kmeans em knn vortex defect apriori ann knn-classify vortex3d
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "core/cache_planner.h"
#include "core/ipc_probe.h"
#include "service/selection_service.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace fgp;

struct Options {
  double virtual_mb = 700.0;
  double wan_mbps = 800.0;
  core::PredictionModel model = core::PredictionModel::GlobalReduction;
  int threads = 1;
};

[[noreturn]] void usage() {
  std::cerr
      << "usage: fgpred <command> [args]\n"
         "  probe [pentium|opteron]\n"
         "  predict <app> <n-c> <n-c> [--virtual-mb=] [--wan-mbps=] "
         "[--model=none|ro|global] [--threads=]\n"
         "  sweep <app> [--virtual-mb=] [--wan-mbps=]\n"
         "  select\n"
         "  plan-cache <passes> [--virtual-mb=] [--wan-mbps=]\n"
         "apps: kmeans em knn vortex defect apriori ann knn-classify vortex3d\n";
  std::exit(2);
}

Options parse_options(const std::vector<std::string>& args) {
  Options opts;
  for (const auto& arg : args) {
    if (arg.rfind("--virtual-mb=", 0) == 0) {
      opts.virtual_mb = std::stod(arg.substr(13));
    } else if (arg.rfind("--wan-mbps=", 0) == 0) {
      opts.wan_mbps = std::stod(arg.substr(11));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.threads = std::stoi(arg.substr(10));
    } else if (arg == "--model=none") {
      opts.model = core::PredictionModel::NoCommunication;
    } else if (arg == "--model=ro") {
      opts.model = core::PredictionModel::ReductionCommunication;
    } else if (arg == "--model=global") {
      opts.model = core::PredictionModel::GlobalReduction;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
    }
  }
  return opts;
}

bench::BenchApp make_app(const std::string& name, const Options& opts) {
  const double mb = opts.virtual_mb;
  if (name == "kmeans") return bench::make_kmeans_app(mb, 2.0, 42);
  if (name == "em") return bench::make_em_app(mb, 2.0, 42);
  if (name == "knn") return bench::make_knn_app(mb, 2.0, 42);
  if (name == "vortex") return bench::make_vortex_app(mb, 256, 7);
  if (name == "defect") return bench::make_defect_app(mb, 24, 24, 96, 11);
  if (name == "apriori") return bench::make_apriori_app(mb, 17);
  if (name == "ann") return bench::make_ann_app(mb, 42);
  if (name == "knn-classify") return bench::make_knn_classify_app(mb, 42);
  if (name == "vortex3d") return bench::make_vortex3d_app(mb, 23);
  std::cerr << "unknown app: " << name << "\n";
  usage();
}

bench::NodeConfig parse_config(const std::string& s) {
  const auto dash = s.find('-');
  if (dash == std::string::npos) usage();
  return {std::stoi(s.substr(0, dash)), std::stoi(s.substr(dash + 1))};
}

int cmd_probe(const std::vector<std::string>& args) {
  const auto cluster = (!args.empty() && args[0] == "opteron")
                           ? sim::cluster_opteron_infiniband()
                           : sim::cluster_pentium_myrinet();
  const auto ipc = core::measure_ipc(cluster);
  std::cout << "cluster " << cluster.name << "\n"
            << "  machine: " << cluster.machine.name << ", "
            << cluster.machine.cpu_flops / 1e9 << " Gflop/s/core x "
            << cluster.machine.cores << " cores, mem "
            << cluster.machine.mem_Bps / 1e9 << " GB/s\n"
            << "  disk: " << cluster.machine.disk.effective_bandwidth() / 1e6
            << " MB/s, seek " << cluster.machine.disk.seek_s * 1e3 << " ms\n"
            << "  storage backplane: " << cluster.storage_backplane_Bps / 1e6
            << " MB/s aggregate\n"
            << "  IPC probe: w = " << ipc.w * 1e9 << " ns/byte ("
            << 1.0 / ipc.w / 1e6 << " MB/s), l = " << ipc.l * 1e3 << " ms\n";
  return 0;
}

int cmd_predict(const std::vector<std::string>& args) {
  if (args.size() < 3) usage();
  const Options opts = parse_options(args);
  auto app = make_app(args[0], opts);
  const auto profile_cfg = parse_config(args[1]);
  const auto target_cfg = parse_config(args[2]);
  const auto cluster = sim::cluster_pentium_myrinet();
  const auto wan = sim::wan_mbps(opts.wan_mbps);

  const core::Profile profile =
      bench::profile_of(app, cluster, cluster, wan, profile_cfg);
  std::cout << "profile " << args[1] << ": t_d="
            << util::Table::fmt(profile.t_disk, 2) << "s t_n="
            << util::Table::fmt(profile.t_network, 2) << "s t_c="
            << util::Table::fmt(profile.t_compute, 2) << "s (t_ro="
            << util::Table::fmt(profile.t_ro, 3) << "s, t_g="
            << util::Table::fmt(profile.t_g, 3) << "s, r="
            << profile.object_bytes / 1e3 << " KB, " << profile.passes
            << " passes)\n";

  core::PredictorOptions popts;
  popts.model = opts.model;
  popts.classes = app.classes;
  popts.ipc = core::measure_ipc(cluster);
  core::ProfileConfig target = profile.config;
  target.data_nodes = target_cfg.n;
  target.compute_nodes = target_cfg.c;
  target.threads_per_node = opts.threads;
  const auto predicted = core::Predictor(profile, popts).predict(target);

  const auto actual = bench::simulate(app, cluster, cluster, wan, target_cfg);
  std::cout << "predict " << args[2] << " [" << core::to_string(opts.model)
            << "]: " << util::Table::fmt(predicted.total(), 2)
            << "s  (disk " << util::Table::fmt(predicted.disk, 2) << " + net "
            << util::Table::fmt(predicted.network, 2) << " + compute "
            << util::Table::fmt(predicted.compute, 2) << ")\n"
            << "actual: " << util::Table::fmt(actual.timing.total.total(), 2)
            << "s  relative error "
            << util::Table::pct(util::relative_error(
                   actual.timing.total.total(), predicted.total()))
            << "\n";
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const Options opts = parse_options(args);
  const auto app = make_app(args[0], opts);
  const bench::SweepRunner sweep;
  bench::three_model_figure(sweep, "Sweep: " + args[0], app,
                            sim::cluster_pentium_myrinet(),
                            sim::wan_mbps(opts.wan_mbps));
  return 0;
}

int cmd_select() {
  const auto app = bench::make_em_app(700.0, 2.0, 42);
  const auto pentium = sim::cluster_pentium_myrinet();
  service::ShardedCatalog catalog(1);
  catalog.register_repository_site({"storage-a", pentium, 8});
  catalog.register_repository_site({"storage-b", pentium, 4});
  catalog.register_compute_site({"hpc", pentium, 16});
  catalog.register_link("storage-a", "hpc", sim::wan_mbps(40));
  catalog.register_link("storage-b", "hpc", sim::wan_mbps(120));
  catalog.register_replica({"em-points", "storage-a", 8});
  catalog.register_replica({"em-points", "storage-b", 2});

  const core::Profile profile =
      bench::profile_of(app, pentium, pentium, sim::wan_mbps(40), {1, 1});
  core::PredictorOptions popts;
  popts.classes = app.classes;
  service::SelectionService selector(&catalog);
  selector.register_app(profile, popts);
  const service::SelectionQuery query{profile.app, "em-points",
                                      app.dataset->total_virtual_bytes(),
                                      std::numeric_limits<int>::max()};
  const auto ranked = selector.query(query).ranked;

  util::Table table({"rank", "replica", "n", "c", "T_pred(s)"});
  for (std::size_t i = 0; i < ranked.size(); ++i)
    table.add_row({std::to_string(i + 1),
                   ranked[i].candidate.replica.repository,
                   std::to_string(ranked[i].candidate.replica.storage_nodes),
                   std::to_string(ranked[i].candidate.compute_nodes),
                   util::Table::fmt(ranked[i].predicted.total(), 2)});
  table.print(std::cout);
  return 0;
}

int cmd_plan_cache(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const int passes = std::stoi(args[0]);
  const Options opts = parse_options(args);
  const auto app = bench::make_em_app(opts.virtual_mb, 2.0, 42, passes);
  const auto cluster = sim::cluster_pentium_myrinet();
  const auto wan = sim::wan_mbps(40.0);

  core::CachePlannerInputs in;
  in.dataset_bytes = app.dataset->total_virtual_bytes();
  in.chunks = app.dataset->chunk_count();
  in.data_nodes = 2;
  in.compute_nodes = 4;
  in.data_cluster = cluster;
  in.compute_cluster = cluster;
  in.wan = wan;
  // Compute time from a quick profile.
  const auto profile = bench::profile_of(app, cluster, cluster, wan, {2, 4});
  in.compute_time_per_pass_s =
      profile.t_compute / static_cast<double>(profile.passes);
  const core::CachePlanner planner(in);

  freeride::CacheSiteSetup site;
  site.cluster = sim::cluster_opteron_infiniband();
  site.cluster.name = "cache-site";
  site.nodes = 2;
  site.wan_to_compute = sim::wan_mbps(400.0);
  const std::vector<freeride::CacheSiteSetup> sites{site};

  util::Table table({"option", "first pass(s)", "later pass(s)",
                     "total(" + std::to_string(passes) + " passes)"});
  for (const auto& plan : planner.rank(passes, sites)) {
    const char* name = plan.mode == freeride::CacheMode::None ? "no-cache"
                       : plan.mode == freeride::CacheMode::LocalDisk
                           ? "local-disk"
                           : plan.site_name.c_str();
    table.add_row({name, util::Table::fmt(plan.first_pass_s, 2),
                   util::Table::fmt(plan.later_pass_s, 2),
                   util::Table::fmt(plan.total_s(passes), 2)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    if (cmd == "probe") return cmd_probe(args);
    if (cmd == "predict") return cmd_predict(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "select") return cmd_select();
    if (cmd == "plan-cache") return cmd_plan_cache(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
}
