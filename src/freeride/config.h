// config.h — job configuration: the (n, c) pair plus runtime switches.
#pragma once

namespace fgp::freeride {

/// Shared-memory parallelization technique used *within* each compute node
/// when threads_per_node > 1 (FREERIDE's cluster-of-SMPs support; see Jin
/// & Agrawal, TKDE 2005). Full replication keeps one reduction object per
/// thread and combines them after the local phase; the locking schemes
/// share one object and pay a per-update contention cost instead.
enum class SmpStrategy {
  FullReplication,
  FullLocking,
  CacheSensitiveLocking,
};

/// Configuration of one FREERIDE-G job execution.
struct JobConfig {
  int data_nodes = 1;     ///< n — storage/retrieval nodes at the repository
  int compute_nodes = 1;  ///< c — processing nodes (must be >= data_nodes)

  /// Threads per compute node (<= the machine's core count; validated by
  /// the runtime). 1 = pure distributed-memory execution.
  int threads_per_node = 1;
  SmpStrategy smp_strategy = SmpStrategy::FullReplication;

  /// Cache chunks at the compute nodes during pass 0 and read them from
  /// local disk on later passes (FREERIDE-G "data caching"). Off by
  /// default in the prediction experiments: the published model assumes
  /// retrieval time lives on the repository side on every pass; the
  /// abl01_caching bench quantifies how caching breaks that assumption.
  bool enable_caching = false;

  /// Per-compute-node cache storage, bytes (virtual). When a multi-pass
  /// job's per-node share exceeds it, local caching is impossible and the
  /// runtime falls back to a non-local cache site (if the JobSetup names
  /// one) or to re-retrieval.
  double local_cache_capacity_bytes = 1e18;

  /// Pipeline retrieval, movement and local reduction instead of running
  /// them as strictly additive phases. The published prediction model
  /// assumes the additive structure; abl05_overlap quantifies the damage.
  bool overlap_phases = false;

  /// Straggler injection: the first `straggler_count` compute nodes run
  /// their local reductions `straggler_slowdown`x slower (shared machines,
  /// failing disks — everyday grid weather the homogeneous model cannot
  /// see; abl05_stragglers quantifies the damage).
  int straggler_count = 0;
  double straggler_slowdown = 1.0;

  /// Safety cap on passes for iterative algorithms.
  int max_passes = 128;

  /// Throws util::ConfigError when the configuration violates the
  /// middleware's documented constraints (positive counts, c >= n — the
  /// paper's "M >= N" rule, sane pass cap, a finite straggler slowdown
  /// >= 1, a cache capacity that is not NaN and not below 0).
  void validate() const;
};

}  // namespace fgp::freeride
