#include "service/sharded_catalog.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace fgp::service {

namespace {

/// FNV-1a 64-bit; stable across platforms so shard assignment (and the
/// fan-out counters derived from it) is deterministic.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool link_less(const Topology::Link& a, const Topology::Link& b) {
  if (a.repository != b.repository) return a.repository < b.repository;
  return a.compute < b.compute;
}

/// Runs before shards_ is sized in the member-init list, so an absurd
/// shard count throws the documented ConfigError instead of attempting a
/// giant vector allocation (bad_alloc).
std::size_t validated_shard_count(std::size_t shards) {
  if (shards < 1 || shards > 4096)
    throw util::ConfigError("shard count must be in [1, 4096], got " +
                            std::to_string(shards));
  return shards;
}

}  // namespace

const grid::ComputeSite* Topology::find_compute(std::string_view id) const {
  for (const auto& s : compute_sites)
    if (s.id == id) return &s;
  return nullptr;
}

const grid::RepositorySite* Topology::find_repository(
    std::string_view id) const {
  for (const auto& s : repository_sites)
    if (s.id == id) return &s;
  return nullptr;
}

const sim::WanSpec* Topology::find_link(std::string_view repository,
                                        std::string_view compute) const {
  const auto it = std::lower_bound(
      links.begin(), links.end(), std::make_pair(repository, compute),
      [](const Link& l, const std::pair<std::string_view, std::string_view>&
                            key) {
        if (l.repository != key.first) return l.repository < key.first;
        return l.compute < key.second;
      });
  if (it == links.end() || it->repository != repository ||
      it->compute != compute)
    return nullptr;
  return &it->wan;
}

std::span<const grid::Replica> ReplicaShard::replicas_of(
    std::string_view dataset) const {
  const auto lo = std::lower_bound(
      replicas.begin(), replicas.end(), dataset,
      [](const grid::Replica& r, std::string_view d) {
        return std::string_view(r.dataset) < d;
      });
  const auto hi = std::upper_bound(
      lo, replicas.end(), dataset,
      [](std::string_view d, const grid::Replica& r) {
        return d < std::string_view(r.dataset);
      });
  return {lo, hi};
}

std::size_t shard_of(std::string_view dataset, std::size_t shard_count) {
  FGP_ASSERT(shard_count > 0);
  return static_cast<std::size_t>(fnv1a(dataset) % shard_count);
}

ShardedCatalog::ShardedCatalog(std::size_t shards)
    : shards_(validated_shard_count(shards)) {
  topology_.store(std::make_shared<const Topology>());
  for (auto& s : shards_) s.store(std::make_shared<const ReplicaShard>());
}

void ShardedCatalog::register_compute_site(grid::ComputeSite site) {
  FGP_CHECK_MSG(!site.id.empty(), "compute site needs an id");
  FGP_CHECK_MSG(site.available_nodes > 0, "compute site needs nodes");
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_compute(site.id) == nullptr,
                "duplicate compute site " << site.id);
  next->compute_sites.push_back(std::move(site));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_repository_site(grid::RepositorySite site) {
  FGP_CHECK_MSG(!site.id.empty(), "repository site needs an id");
  FGP_CHECK_MSG(site.available_nodes > 0, "repository site needs nodes");
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_repository(site.id) == nullptr,
                "duplicate repository site " << site.id);
  next->repository_sites.push_back(std::move(site));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_link(const grid::SiteId& repository,
                                   const grid::SiteId& compute,
                                   sim::WanSpec wan) {
  const std::lock_guard<std::mutex> lock(write_mu_);
  auto next = std::make_shared<Topology>(*topology_.load());
  FGP_CHECK_MSG(next->find_repository(repository) != nullptr,
                "unknown repository site: " << repository);
  FGP_CHECK_MSG(next->find_compute(compute) != nullptr,
                "unknown compute site: " << compute);
  Topology::Link link{repository, compute, wan};
  const auto it = std::lower_bound(next->links.begin(), next->links.end(),
                                   link, link_less);
  FGP_CHECK_MSG(it == next->links.end() || it->repository != repository ||
                    it->compute != compute,
                "duplicate link " << repository << " -> " << compute);
  next->links.insert(it, std::move(link));
  next->version++;
  topology_.store(std::shared_ptr<const Topology>(std::move(next)));
}

void ShardedCatalog::register_replica(grid::Replica replica) {
  std::vector<grid::Replica> one;
  one.push_back(std::move(replica));
  register_replicas(std::move(one));
}

void ShardedCatalog::register_replicas(std::vector<grid::Replica> replicas) {
  if (replicas.empty()) return;
  const std::lock_guard<std::mutex> lock(write_mu_);
  const auto topo = topology_.load();
  // Validate against the current topology first so a bad entry publishes
  // nothing (all-or-nothing).
  for (const auto& r : replicas) {
    const auto* repo = topo->find_repository(r.repository);
    FGP_CHECK_MSG(repo != nullptr,
                  "unknown repository site: " << r.repository);
    FGP_CHECK_MSG(r.storage_nodes > 0 &&
                      r.storage_nodes <= repo->available_nodes,
                  "replica of " << r.dataset << " wants " << r.storage_nodes
                                << " nodes, site " << repo->id << " has "
                                << repo->available_nodes);
  }

  // Partition the batch, then copy-on-publish only the touched shards.
  std::vector<std::vector<grid::Replica>> per_shard(shards_.size());
  for (auto& r : replicas)
    per_shard[shard_of(r.dataset, shards_.size())].push_back(std::move(r));
  const auto by_dataset = [](const grid::Replica& a, const grid::Replica& b) {
    return a.dataset < b.dataset;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& batch = per_shard[s];
    if (batch.empty()) continue;
    // Registration order within a dataset must survive (the enumeration
    // order contract): the batch sorts stably, and the merge puts
    // existing entries before incoming ones on ties. The shard is already
    // sorted, so a publish costs one linear merge, not a full re-sort.
    std::stable_sort(batch.begin(), batch.end(), by_dataset);
    const auto current = shards_[s].load();
    auto next = std::make_shared<ReplicaShard>();
    next->replicas.reserve(current->replicas.size() + batch.size());
    std::merge(current->replicas.begin(), current->replicas.end(),
               std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()),
               std::back_inserter(next->replicas), by_dataset);
    shards_[s].store(std::shared_ptr<const ReplicaShard>(std::move(next)));
  }
}

std::shared_ptr<const Topology> ShardedCatalog::topology() const {
  return topology_.load();
}

std::shared_ptr<const ReplicaShard> ShardedCatalog::shard(
    std::size_t index) const {
  FGP_CHECK_MSG(index < shards_.size(),
                "shard index " << index << " out of range (catalog has "
                               << shards_.size() << ")");
  return shards_[index].load();
}

std::shared_ptr<const ReplicaShard> ShardedCatalog::shard_for(
    std::string_view dataset) const {
  return shards_[shard_of(dataset, shards_.size())].load();
}

std::size_t ShardedCatalog::replica_count() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s.load()->replicas.size();
  return total;
}

std::vector<grid::Candidate> ShardedCatalog::enumerate_candidates(
    const Topology& topo, const ReplicaShard& shard,
    const std::string& dataset) {
  std::vector<grid::Candidate> out;
  for (const auto& replica : shard.replicas_of(dataset)) {
    for (const auto& site : topo.compute_sites) {
      const auto* wan = topo.find_link(replica.repository, site.id);
      if (wan == nullptr) continue;  // unreachable pair
      // 64-bit sweep counter: `c *= 2` on an int is UB once
      // available_nodes exceeds INT_MAX/2.
      for (long long c = 1; c <= site.available_nodes; c *= 2) {
        if (c < replica.storage_nodes) continue;  // FREERIDE-G: M >= N
        out.push_back({replica, site.id, static_cast<int>(c), *wan});
      }
    }
  }
  return out;
}

}  // namespace fgp::service
