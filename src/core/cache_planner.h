// cache_planner.h — choosing where to cache for multi-pass jobs.
//
// Paper §2.1 lists "Finding Non-local Caching Resources" as a resource-
// selection role: "if sufficient storage is not available at the site
// where computations are performed, data may be cached at a non-local
// site, i.e., at a location from which it can be accessed at a lower cost
// than the original repository" — but the paper's implementation does not
// cover it. This planner completes the design: it costs a multi-pass job
// under (a) no caching, (b) compute-local disk caching, (c) each candidate
// non-local cache site, using the same analytic machinery as the
// prediction model, and ranks the options.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "freeride/runtime.h"

namespace fgp::core {

/// One caching option's predicted per-pass costs.
struct CachePlan {
  freeride::CacheMode mode = freeride::CacheMode::None;
  std::string site_name;  ///< cache-site cluster name (NonLocalSite only)
  double first_pass_s = 0.0;
  double later_pass_s = 0.0;

  double total_s(int passes) const {
    return first_pass_s + static_cast<double>(passes - 1) * later_pass_s;
  }
};

/// What the planner needs to know about the job. Data-movement costs come
/// from the cluster/WAN specs; the per-pass processing time comes from a
/// profile run (it is identical under every caching option).
struct CachePlannerInputs {
  double dataset_bytes = 0.0;  ///< s (virtual)
  std::uint64_t chunks = 0;
  int data_nodes = 1;
  int compute_nodes = 1;
  sim::ClusterSpec data_cluster;
  sim::ClusterSpec compute_cluster;
  sim::WanSpec wan;  ///< repository -> compute pipe
  double compute_time_per_pass_s = 0.0;
  double local_cache_capacity_bytes = 1e18;  ///< per compute node
};

class CachePlanner {
 public:
  explicit CachePlanner(CachePlannerInputs inputs);

  /// Re-retrieve from the repository every pass.
  CachePlan plan_no_cache() const;

  /// Cache on the compute nodes' local disks; nullopt when the per-node
  /// share exceeds the local capacity.
  std::optional<CachePlan> plan_local_disk() const;

  /// Cache at a non-local site.
  CachePlan plan_site(const freeride::CacheSiteSetup& site) const;

  /// Every feasible option for a `passes`-pass job, cheapest first.
  std::vector<CachePlan> rank(
      int passes, std::span<const freeride::CacheSiteSetup> sites) const;

 private:
  double repository_pass_s() const;  ///< retrieval + movement from the repo

  CachePlannerInputs in_;
};

}  // namespace fgp::core
