#include "service/sharded_catalog.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace fgp::service {

namespace {

using Leaf = ReplicaShard::Leaf;
using LeafPtr = std::shared_ptr<const Leaf>;

/// A publish copies the leaf its entries land in, so this bounds the copy.
/// A leaf grows to 2 × kLeafEntries before it is cut into leaves of about
/// kLeafEntries. DESIGN.md §16 records the sweep behind the value.
constexpr std::size_t kLeafEntries = 128;

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

bool by_dataset(const grid::Replica& a, const grid::Replica& b) {
  return a.dataset < b.dataset;
}

/// Sorts `batch` into std::stable_sort(by_dataset)'s order: by name, equal
/// names in batch order. It sorts 16-byte keys (name prefix, batch index)
/// instead of moving 72-byte replicas per comparison, the index settling
/// what the names cannot, then moves each replica once into its place by
/// following the permutation's cycles.
void sort_by_dataset(Leaf& batch) {
  if (batch.size() < 2) return;
  struct Key {
    std::uint64_t prefix;
    std::size_t index;
  };
  std::vector<Key> keys(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    keys[i] = {name_prefix(batch[i].dataset), i};
  std::sort(keys.begin(), keys.end(), [&batch](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const int names = batch[a.index].dataset.compare(batch[b.index].dataset);
    return names != 0 ? names < 0 : a.index < b.index;
  });
  // Position i takes batch[keys[i].index]. Each cycle lifts out its first
  // replica, pulls every other one into place, and drops the lifted one
  // into the last hole; a placed key's index is set to its own position.
  for (std::size_t start = 0; start < keys.size(); ++start) {
    if (keys[start].index == start) continue;
    grid::Replica lifted = std::move(batch[start]);
    std::size_t hole = start;
    while (keys[hole].index != start) {
      const std::size_t from = keys[hole].index;
      batch[hole] = std::move(batch[from]);
      keys[hole].index = hole;
      hole = from;
    }
    batch[hole] = std::move(lifted);
    keys[hole].index = hole;
  }
}

/// Whether the last dataset of `shard`'s leaf `i` sorts before `dataset`,
/// whose name_prefix is `prefix`. The directory settles it where the
/// prefixes differ; only a tie reads the leaf's last name.
bool leaf_ends_before(const ReplicaShard& shard, std::size_t i,
                      std::string_view dataset, std::uint64_t prefix) {
  const std::uint64_t last = shard.directory[i];
  if (last != prefix) return last < prefix;
  return std::string_view(shard.leaves[i]->back().dataset) < dataset;
}

/// Appends `leaf` to `shard` with its directory entry: the one place a
/// leaf enters a snapshot, so the directory cannot drift from the leaves.
void push_leaf(ReplicaShard& shard, LeafPtr leaf, std::uint64_t last_prefix) {
  shard.leaves.push_back(std::move(leaf));
  shard.directory.push_back(last_prefix);
}

/// Appends a leaf this publish built, keyed by its last dataset.
void push_new_leaf(ReplicaShard& shard, LeafPtr leaf) {
  const std::uint64_t last_prefix = name_prefix(leaf->back().dataset);
  push_leaf(shard, std::move(leaf), last_prefix);
}

/// Appends the sorted `run` to `out`: whole when it holds at most
/// 2 × kLeafEntries entries, else as leaves of about kLeafEntries. Each cut
/// goes at the dataset boundary nearest kLeafEntries past the leaf's
/// start, so no dataset spans two leaves and a dataset longer than the
/// target gets a leaf of its own size.
void append_leaves(ReplicaShard& out, Leaf run) {
  auto first = run.begin();
  while (static_cast<std::size_t>(run.end() - first) > 2 * kLeafEntries) {
    const auto target = first + kLeafEntries;
    const auto [lo, hi] = std::equal_range(first, run.end(), *target,
                                           by_dataset);
    const auto cut = lo != first && target - lo <= hi - target ? lo : hi;
    push_new_leaf(out, std::make_shared<const Leaf>(
                           std::make_move_iterator(first),
                           std::make_move_iterator(cut)));
    first = cut;
  }
  if (first == run.begin())
    push_new_leaf(out, std::make_shared<const Leaf>(std::move(run)));
  else if (first != run.end())
    push_new_leaf(out, std::make_shared<const Leaf>(
                           std::make_move_iterator(first),
                           std::make_move_iterator(run.end())));
}

/// The snapshot after merging `batch` (sorted by sort_by_dataset) into
/// `current`. Each entry goes to the first leaf whose last dataset is not
/// less than its own, the last leaf taking the rest; a leaf that gets none
/// is shared with its directory entry, one that gets some is merged with
/// its existing entries first on ties and re-cut. Whether the next entry
/// reaches a leaf is read from the directory, so a publish reads only the
/// leaves it merges into.
std::shared_ptr<const ReplicaShard> merge_publish(const ReplicaShard& current,
                                                  Leaf batch) {
  auto next = std::make_shared<ReplicaShard>();
  if (current.leaves.empty()) {
    append_leaves(*next, std::move(batch));
    return next;
  }
  next->leaves.reserve(current.leaves.size() + 1);
  next->directory.reserve(current.leaves.size() + 1);
  auto in = batch.begin();
  for (std::size_t i = 0; i < current.leaves.size(); ++i) {
    const LeafPtr& leaf = current.leaves[i];
    const bool last_leaf = i + 1 == current.leaves.size();
    if (in == batch.end() ||
        (!last_leaf && leaf_ends_before(current, i, in->dataset,
                                        name_prefix(in->dataset)))) {
      push_leaf(*next, leaf, current.directory[i]);
      continue;
    }
    const auto in_end =
        last_leaf ? batch.end()
                  : std::upper_bound(in, batch.end(), leaf->back(), by_dataset);
    Leaf merged;
    merged.reserve(leaf->size() + static_cast<std::size_t>(in_end - in));
    std::merge(leaf->begin(), leaf->end(), std::make_move_iterator(in),
               std::make_move_iterator(in_end), std::back_inserter(merged),
               by_dataset);
    append_leaves(*next, std::move(merged));
    in = in_end;
  }
  return next;
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
  // The only leaf that can hold `dataset` is the first whose last dataset
  // is not less than it: a binary search over the directory.
  const std::uint64_t prefix = name_prefix(dataset);
  std::size_t lo = 0;
  std::size_t hi = directory.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (leaf_ends_before(*this, mid, dataset, prefix))
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo == leaves.size()) return {};
  const Leaf& replicas = *leaves[lo];
  const auto first = std::lower_bound(
      replicas.begin(), replicas.end(), dataset,
      [](const grid::Replica& r, std::string_view d) {
        return std::string_view(r.dataset) < d;
      });
  // A dataset's run is a few entries: step over it instead of searching
  // the rest of the leaf again.
  auto last = first;
  while (last != replicas.end() && last->dataset == dataset) ++last;
  return {first, last};
}

std::size_t ReplicaShard::size() const {
  std::size_t total = 0;
  for (const LeafPtr& leaf : leaves) total += leaf->size();
  return total;
}

std::size_t shard_of(std::string_view dataset, std::size_t shard_count) {
  FGP_ASSERT(shard_count > 0);
  return static_cast<std::size_t>(fnv1a(dataset) % shard_count);
}

std::uint64_t name_prefix(std::string_view name) {
  // copy() takes min(8, size) bytes, and none from an empty view, whose
  // data() may be null.
  char bytes[8] = {};
  name.copy(bytes, sizeof bytes);
  std::uint64_t prefix = 0;
  for (const char b : bytes)
    prefix = prefix << 8 | static_cast<unsigned char>(b);
  return prefix;
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
  // A link with no bandwidth would make every query that reaches it throw
  // in the predictor, taking the rest of its batch down with it.
  wan.validate();
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
  // nothing (all-or-nothing); the same pass finds each entry's shard and
  // counts the shards' batches. Nothing moves until every entry passed.
  std::vector<std::uint32_t> shard_index(replicas.size());
  std::vector<std::size_t> batch_size(shards_.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const grid::Replica& r = replicas[i];
    // query_batch rejects an empty dataset, so no query could reach it.
    FGP_CHECK_MSG(!r.dataset.empty(), "replica needs a dataset name");
    const auto* repo = topo->find_repository(r.repository);
    FGP_CHECK_MSG(repo != nullptr,
                  "unknown repository site: " << r.repository);
    FGP_CHECK_MSG(r.storage_nodes > 0 &&
                      r.storage_nodes <= repo->available_nodes,
                  "replica of " << r.dataset << " wants " << r.storage_nodes
                                << " nodes, site " << repo->id << " has "
                                << repo->available_nodes);
    shard_index[i] = static_cast<std::uint32_t>(
        shard_of(r.dataset, shards_.size()));
    ++batch_size[shard_index[i]];
  }

  // Copy-on-publish only the touched shards. Registration order within a
  // dataset must survive (the enumeration order contract): the batch
  // sorts by name with ties in batch order, and the merge puts existing
  // entries before incoming ones on ties. The leaves are already sorted,
  // so a publish costs one linear merge per touched leaf, not a re-sort
  // or a copy of the shard.
  const auto publish = [this](std::size_t s, Leaf batch) {
    sort_by_dataset(batch);
    shards_[s].store(merge_publish(*shards_[s].load(), std::move(batch)));
  };
  // One shard takes the whole batch (every single register_replica, and
  // any load into a one-shard catalog): the input is that shard's batch.
  if (batch_size[shard_index.front()] == replicas.size()) {
    publish(shard_index.front(), std::move(replicas));
    return;
  }

  // Move each entry into its shard's batch, sized exactly, and free the
  // moved-from input before the sorts.
  std::vector<Leaf> per_shard(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    per_shard[s].reserve(batch_size[s]);
  for (std::size_t i = 0; i < replicas.size(); ++i)
    per_shard[shard_index[i]].push_back(std::move(replicas[i]));
  std::vector<grid::Replica>().swap(replicas);
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!per_shard[s].empty()) publish(s, std::move(per_shard[s]));
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
  for (const auto& s : shards_) total += s.load()->size();
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
