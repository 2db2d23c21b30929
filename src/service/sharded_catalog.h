// sharded_catalog.h — the grid information service: a read-mostly
// replica catalog scaled to millions of entries.
//
// It is the repository's one catalog. The benches, the CLI and the
// examples register a handful of sites into a one-shard instance; the
// service layer needs the grid-middleware shape (DESIGN.md §16): a
// long-lived catalog answering a heavy concurrent stream of "which
// replicas hold this dataset?" lookups while replicas keep arriving.
// ShardedCatalog gets there with two ingredients:
//
//   * Replica entries are hash-partitioned over N shards by dataset name,
//     each shard an *immutable* snapshot (replicas sorted by dataset, so a
//     lookup is one binary search) published through
//     std::atomic<std::shared_ptr>. Readers load the pointer and never
//     lock; writers copy the affected shard, apply the change, and swap
//     the pointer (copy-on-publish). A reader holding a snapshot keeps it
//     alive for as long as it needs — a concurrent publish can never pull
//     data out from under an in-flight query.
//
//   * The small side of the catalog — compute sites, repository sites,
//     WAN links — lives in one Topology snapshot under the same
//     discipline, with a monotonically increasing version so caches keyed
//     on the topology (service::ProfileCache) can tell when their
//     compiled state went stale.
//
// Registration order is preserved within a dataset and within the site
// lists, so candidate enumeration follows registration order (the
// contract on enumerate_candidates, pinned by tests/test_service.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "grid/catalog.h"

namespace fgp::service {

/// The site/link side of the catalog: one immutable snapshot, small
/// enough to copy whole on every registration. Site vectors preserve
/// registration order (enumeration order contract); `links` is sorted by
/// (repository, compute) for binary-search lookup.
struct Topology {
  struct Link {
    grid::SiteId repository;
    grid::SiteId compute;
    sim::WanSpec wan;
  };

  std::vector<grid::ComputeSite> compute_sites;
  std::vector<grid::RepositorySite> repository_sites;
  std::vector<Link> links;
  /// Bumped on every publish; caches compiled against a topology compare
  /// versions to detect staleness.
  std::uint64_t version = 0;

  /// nullptr when the id is unknown (readers decide whether that is an
  /// error or a skip).
  const grid::ComputeSite* find_compute(std::string_view id) const;
  const grid::RepositorySite* find_repository(std::string_view id) const;
  const sim::WanSpec* find_link(std::string_view repository,
                                std::string_view compute) const;
};

/// One shard's replica entries, sorted by dataset name; entries of the
/// same dataset keep their registration order (a publish stably sorts the
/// incoming batch and merges it after the existing entries).
struct ReplicaShard {
  std::vector<grid::Replica> replicas;
  /// The contiguous run of replicas for `dataset` (empty span when none).
  std::span<const grid::Replica> replicas_of(std::string_view dataset) const;
};

/// The shard index of `dataset` among `shard_count` shards (FNV-1a over
/// the name). Pure, so tests and fan-out accounting agree with the
/// catalog.
std::size_t shard_of(std::string_view dataset, std::size_t shard_count);

class ShardedCatalog {
 public:
  /// `shards` must be in [1, 4096] (ConfigError otherwise). More shards
  /// shrink the copy a single register_replica pays; the shard count is
  /// fixed for the catalog's lifetime so shard_of stays stable.
  explicit ShardedCatalog(std::size_t shards = 16);

  ShardedCatalog(const ShardedCatalog&) = delete;
  ShardedCatalog& operator=(const ShardedCatalog&) = delete;

  // --- writers (serialized internally, copy-on-publish) -------------------
  void register_compute_site(grid::ComputeSite site);
  void register_repository_site(grid::RepositorySite site);
  void register_link(const grid::SiteId& repository,
                     const grid::SiteId& compute, sim::WanSpec wan);
  void register_replica(grid::Replica replica);
  /// Bulk load: one batch sort + one merge-publish per shard instead of a
  /// copy-on-publish per entry — the path a million-entry catalog takes.
  void register_replicas(std::vector<grid::Replica> replicas);

  // --- readers (lock-free snapshot loads) ---------------------------------
  std::shared_ptr<const Topology> topology() const;
  std::shared_ptr<const ReplicaShard> shard(std::size_t index) const;
  /// The shard holding `dataset`'s replicas.
  std::shared_ptr<const ReplicaShard> shard_for(
      std::string_view dataset) const;

  std::size_t shard_count() const { return shards_.size(); }
  /// Total replica entries across all shards (sums per-shard snapshot
  /// sizes; exact between publishes).
  std::size_t replica_count() const;

  /// Every (replica, compute site, node count) candidate for `dataset`:
  /// replicas in registration order, then compute sites in registration
  /// order, pairs without a WAN link skipped, and node counts sweeping
  /// powers of two up to the site's availability, keeping the FREERIDE-G
  /// constraint compute_nodes >= storage_nodes. Evaluated against
  /// explicit snapshots so a caller that captured them stays consistent
  /// even while writers publish.
  static std::vector<grid::Candidate> enumerate_candidates(
      const Topology& topo, const ReplicaShard& shard,
      const std::string& dataset);

 private:
  // TSan caveat: libstdc++ implements atomic<shared_ptr> (_Sp_atomic in
  // bits/shared_ptr_atomic.h) by guarding a plain pointer with a lock bit
  // whose read-side unlock is memory_order_relaxed, so TSan cannot see
  // the happens-before edge between a reader's load() and the next
  // writer's store() and reports a false race on the pointer word —
  // suppressed via tools/sanitizers/tsan.supp (race:_Sp_atomic).
  std::atomic<std::shared_ptr<const Topology>> topology_;
  std::vector<std::atomic<std::shared_ptr<const ReplicaShard>>> shards_;
  /// Serializes writers only; readers never touch it.
  std::mutex write_mu_;
};

}  // namespace fgp::service
