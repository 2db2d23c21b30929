#include "core/cache_planner.h"

#include <algorithm>

#include "util/check.h"

namespace fgp::core {

namespace {

/// Retrieval time of `bytes` over `chunks` chunks spread evenly across
/// `nodes` nodes of `cluster`: the runtime's disk formula, charged for the
/// mean per-node share.
double retrieval_s(const sim::ClusterSpec& cluster, int nodes, double bytes,
                   std::uint64_t chunks) {
  const auto share = static_cast<double>(nodes);
  return cluster.machine.disk.access_time(
      bytes / share, static_cast<double>(chunks) / share,
      cluster.per_node_retrieval_Bps(nodes));
}

/// Movement time of `bytes` over `chunks` messages from `senders` nodes
/// with NICs of `sender` machine through `wan`: the runtime's WAN formula,
/// charged for the mean per-node share.
double movement_s(const sim::WanSpec& wan, const sim::MachineSpec& sender,
                  int senders, double bytes, std::uint64_t chunks) {
  const auto share = static_cast<double>(senders);
  return wan.transfer_time(bytes / share, static_cast<double>(chunks) / share,
                           senders, sender.nic.bandwidth_Bps);
}

}  // namespace

CachePlanner::CachePlanner(CachePlannerInputs inputs) : in_(std::move(inputs)) {
  FGP_CHECK_MSG(in_.dataset_bytes > 0 && in_.chunks > 0,
                "planner needs a non-empty dataset");
  FGP_CHECK_MSG(in_.data_nodes > 0 && in_.compute_nodes > 0,
                "planner needs positive node counts");
}

double CachePlanner::repository_pass_s() const {
  return retrieval_s(in_.data_cluster, in_.data_nodes, in_.dataset_bytes,
                     in_.chunks) +
         movement_s(in_.wan, in_.data_cluster.machine, in_.data_nodes,
                    in_.dataset_bytes, in_.chunks) +
         in_.compute_time_per_pass_s;
}

CachePlan CachePlanner::plan_no_cache() const {
  CachePlan plan;
  plan.mode = freeride::CacheMode::None;
  plan.first_pass_s = repository_pass_s();
  plan.later_pass_s = plan.first_pass_s;
  return plan;
}

std::optional<CachePlan> CachePlanner::plan_local_disk() const {
  const double per_node_share =
      in_.dataset_bytes / static_cast<double>(in_.compute_nodes);
  if (per_node_share > in_.local_cache_capacity_bytes) return std::nullopt;

  CachePlan plan;
  plan.mode = freeride::CacheMode::LocalDisk;
  // First pass: repository path plus the write to local disk.
  plan.first_pass_s =
      repository_pass_s() + retrieval_s(in_.compute_cluster,
                                        in_.compute_nodes, in_.dataset_bytes,
                                        in_.chunks);
  plan.later_pass_s = retrieval_s(in_.compute_cluster, in_.compute_nodes,
                                  in_.dataset_bytes, in_.chunks) +
                      in_.compute_time_per_pass_s;
  return plan;
}

CachePlan CachePlanner::plan_site(const freeride::CacheSiteSetup& site) const {
  FGP_CHECK_MSG(site.nodes > 0, "cache site needs nodes");
  CachePlan plan;
  plan.mode = freeride::CacheMode::NonLocalSite;
  plan.site_name = site.cluster.name;
  // First pass: repository path plus the forward-and-write to the site.
  plan.first_pass_s =
      repository_pass_s() +
      movement_s(site.wan_to_compute, in_.compute_cluster.machine, site.nodes,
                 in_.dataset_bytes, in_.chunks) +
      retrieval_s(site.cluster, site.nodes, in_.dataset_bytes, in_.chunks);
  // Later passes: read at the site, ship over the site's pipe.
  plan.later_pass_s =
      retrieval_s(site.cluster, site.nodes, in_.dataset_bytes, in_.chunks) +
      movement_s(site.wan_to_compute, site.cluster.machine, site.nodes,
                 in_.dataset_bytes, in_.chunks) +
      in_.compute_time_per_pass_s;
  return plan;
}

std::vector<CachePlan> CachePlanner::rank(
    int passes, std::span<const freeride::CacheSiteSetup> sites) const {
  FGP_CHECK_MSG(passes >= 1, "need at least one pass");
  std::vector<CachePlan> plans;
  plans.push_back(plan_no_cache());
  if (auto local = plan_local_disk()) plans.push_back(*local);
  for (const auto& site : sites) plans.push_back(plan_site(site));
  std::sort(plans.begin(), plans.end(),
            [passes](const CachePlan& a, const CachePlan& b) {
              return a.total_s(passes) < b.total_s(passes);
            });
  return plans;
}

}  // namespace fgp::core
