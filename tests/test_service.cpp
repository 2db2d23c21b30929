// Tests for the prediction-as-a-service layer (DESIGN.md §16): sharded
// catalog validation, enumeration order and snapshot semantics,
// compiled-profile caching, ranking quality and tie order, batched
// selection bit-identity across pool sizes, and concurrent readers racing
// snapshot swaps (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/ipc_probe.h"
#include "grid/catalog.h"
#include "helpers.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/config.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fgp::service {
namespace {

using fgp::testing::make_sum_dataset;
using fgp::testing::pentium_setup;
using fgp::testing::SumKernel;

core::Profile synthetic_profile(const std::string& app,
                                const std::string& cluster) {
  core::Profile p;
  p.app = app;
  p.config.data_nodes = 2;
  p.config.compute_nodes = 4;
  p.config.dataset_bytes = 350e6;
  p.config.bandwidth_Bps = 1e7;
  p.config.data_cluster = cluster;
  p.config.compute_cluster = cluster;
  p.t_disk = 30.0;
  p.t_network = 60.0;
  p.t_compute = 100.0;
  p.t_ro = 5.0;
  p.t_g = 3.0;
  p.object_bytes = 64e3;
  p.passes = 5;
  return p;
}

core::PredictorOptions synthetic_options() {
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes.ro = core::RoSizeClass::Constant;
  opts.classes.global = core::GlobalReductionClass::LinearConstant;
  return opts;
}

/// The replicas populate() registers, in registration order.
std::vector<grid::Replica> populated_replicas() {
  return {{"em-data", "repo-east", 4},
          {"em-data", "repo-west", 2},
          {"points", "repo-west", 1}};
}

/// Registers a small grid: two repositories, two compute sites on
/// different hardware, and one unreachable pair (repo-west -> hpc-opteron).
void populate(ShardedCatalog& cat) {
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();
  cat.register_repository_site({"repo-east", pentium, 8});
  cat.register_repository_site({"repo-west", pentium, 4});
  cat.register_compute_site({"hpc-pentium", pentium, 16});
  cat.register_compute_site({"hpc-opteron", opteron, 16});
  cat.register_link("repo-east", "hpc-pentium", sim::wan_mbps(80));
  cat.register_link("repo-east", "hpc-opteron", sim::wan_mbps(20));
  cat.register_link("repo-west", "hpc-pentium", sim::wan_mbps(30));
  for (const auto& r : populated_replicas()) cat.register_replica(r);
}

std::map<std::string, core::ScalingFactors> opteron_scalers() {
  return {{"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};
}

bool same_candidate(const grid::Candidate& a, const grid::Candidate& b) {
  return a.replica.dataset == b.replica.dataset &&
         a.replica.repository == b.replica.repository &&
         a.replica.storage_nodes == b.replica.storage_nodes &&
         a.compute_site == b.compute_site &&
         a.compute_nodes == b.compute_nodes &&
         a.wan.per_link_Bps == b.wan.per_link_Bps;
}

/// The catalog's candidates for `dataset` against its current snapshots.
std::vector<grid::Candidate> enumerate(const ShardedCatalog& cat,
                                       const std::string& dataset) {
  return ShardedCatalog::enumerate_candidates(
      *cat.topology(), *cat.shard_for(dataset), dataset);
}

/// The enumeration contract written out longhand: the replicas of
/// `dataset` in registration order, then the compute sites in
/// registration order, pairs without a link skipped, and c = 1, 2, 4, ...
/// up to the site's nodes, keeping c >= the replica's storage nodes.
std::vector<grid::Candidate> contract_candidates(
    const std::vector<grid::Replica>& registered, const Topology& topo,
    const std::string& dataset) {
  std::vector<grid::Candidate> out;
  for (const auto& replica : registered) {
    if (replica.dataset != dataset) continue;
    for (const auto& site : topo.compute_sites) {
      const auto* wan = topo.find_link(replica.repository, site.id);
      if (wan == nullptr) continue;
      for (int c = 1; c <= site.available_nodes; c *= 2)
        if (c >= replica.storage_nodes)
          out.push_back({replica, site.id, c, *wan});
    }
  }
  return out;
}

void expect_same_candidates(const std::vector<grid::Candidate>& got,
                            const std::vector<grid::Candidate>& expect,
                            const std::string& context) {
  ASSERT_EQ(got.size(), expect.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_candidate(got[i], expect[i]))
        << context << " candidate " << i;
}

// ---------------------------------------------------------------------------
// ShardedCatalog

TEST(ShardedCatalog, ShardCountBoundsAreEnforced) {
  EXPECT_THROW(ShardedCatalog(0), util::ConfigError);
  EXPECT_THROW(ShardedCatalog(4097), util::ConfigError);
  // Validation must run before the shard vector is sized: a count this
  // large would otherwise die in allocation (bad_alloc), not ConfigError.
  EXPECT_THROW(ShardedCatalog(std::size_t{1} << 60), util::ConfigError);
  EXPECT_NO_THROW(ShardedCatalog(1));
  EXPECT_NO_THROW(ShardedCatalog(4096));
}

TEST(ShardedCatalog, ShardOfIsStableAndInRange) {
  for (std::size_t shards : {1u, 4u, 16u, 4096u}) {
    EXPECT_EQ(shard_of("em-data", shards), shard_of("em-data", shards));
    EXPECT_LT(shard_of("em-data", shards), shards);
  }
}

TEST(ShardedCatalog, RegistrationIsValidated) {
  ShardedCatalog cat(4);
  populate(cat);
  const auto before = cat.topology();
  EXPECT_THROW(cat.register_compute_site(
                   {"hpc-pentium", sim::cluster_ideal(), 4}),
               util::Error);
  EXPECT_THROW(cat.register_repository_site(
                   {"repo-east", sim::cluster_ideal(), 4}),
               util::Error);
  EXPECT_THROW(cat.register_replica({"x", "nope", 1}), util::Error);
  // query_batch rejects an empty dataset, so such a replica is unreachable.
  EXPECT_THROW(cat.register_replica({"", "repo-east", 1}), util::Error);
  EXPECT_THROW(cat.register_replica({"x", "repo-west", 5}), util::Error);
  EXPECT_THROW(cat.register_link("repo-east", "nope", sim::wan_mbps(10)),
               util::Error);
  EXPECT_THROW(cat.register_link("nope", "hpc-pentium", sim::wan_mbps(10)),
               util::Error);
  EXPECT_THROW(
      cat.register_link("repo-east", "hpc-pentium", sim::wan_mbps(10)),
      util::Error);
  // An invalid WAN spec is rejected on a pair that has no link yet, so
  // only the spec itself can be at fault.
  const auto bad_wan = [](double per_link_Bps, double protocol_overhead) {
    sim::WanSpec wan = sim::wan_mbps(10);
    wan.per_link_Bps = per_link_Bps;
    wan.protocol_overhead = protocol_overhead;
    return wan;
  };
  for (const sim::WanSpec& wan :
       {bad_wan(0.0, 0.03), bad_wan(-1.0, 0.03),
        bad_wan(std::numeric_limits<double>::quiet_NaN(), 0.03),
        bad_wan(1e6, 1.0)}) {
    EXPECT_THROW(cat.register_link("repo-west", "hpc-opteron", wan),
                 util::ConfigError);
    EXPECT_EQ(cat.topology()->version, before->version);
  }
  // A rejected registration publishes nothing.
  const auto topo = cat.topology();
  EXPECT_EQ(topo->version, before->version);
  EXPECT_EQ(cat.replica_count(), populated_replicas().size());

  ASSERT_NE(topo->find_compute("hpc-pentium"), nullptr);
  EXPECT_EQ(topo->find_compute("hpc-pentium")->available_nodes, 16);
  ASSERT_NE(topo->find_repository("repo-west"), nullptr);
  EXPECT_EQ(topo->find_repository("repo-west")->available_nodes, 4);
  ASSERT_NE(topo->find_link("repo-east", "hpc-opteron"), nullptr);
  EXPECT_DOUBLE_EQ(topo->find_link("repo-east", "hpc-opteron")->per_link_Bps,
                   20e6 / 8.0);
  EXPECT_EQ(topo->find_compute("nope"), nullptr);
  EXPECT_EQ(topo->find_repository("nope"), nullptr);
  EXPECT_EQ(topo->find_repository("hpc-pentium"), nullptr);
  EXPECT_EQ(topo->find_link("repo-west", "hpc-opteron"), nullptr);
  EXPECT_EQ(topo->find_link("nope", "hpc-pentium"), nullptr);
}

TEST(ShardedCatalog, BulkRegisterIsAllOrNothing) {
  ShardedCatalog cat(4);
  populate(cat);
  const std::size_t before = cat.replica_count();
  for (const grid::Replica& bad : {grid::Replica{"bad", "repo-west", 99},
                                   grid::Replica{"", "repo-west", 1}}) {
    std::vector<grid::Replica> batch = {{"ok", "repo-east", 2}, bad};
    EXPECT_THROW(cat.register_replicas(std::move(batch)), util::Error);
    EXPECT_EQ(cat.replica_count(), before);
    EXPECT_TRUE(cat.shard_for("ok")->replicas_of("ok").empty());
  }
  // A bad entry after a batch that reaches every shard still leaves every
  // shard's snapshot as it was.
  std::vector<std::shared_ptr<const ReplicaShard>> snapshots;
  for (std::size_t s = 0; s < cat.shard_count(); ++s)
    snapshots.push_back(cat.shard(s));
  std::vector<grid::Replica> batch;
  std::vector<bool> reached(cat.shard_count(), false);
  for (int i = 0; i < 200; ++i) {
    batch.push_back({"ok-" + std::to_string(i), "repo-east", 2});
    reached[shard_of(batch.back().dataset, cat.shard_count())] = true;
  }
  ASSERT_EQ(std::count(reached.begin(), reached.end(), true), 4);
  batch.push_back({"bad", "nope", 1});
  EXPECT_THROW(cat.register_replicas(std::move(batch)), util::Error);
  EXPECT_EQ(cat.replica_count(), before);
  for (std::size_t s = 0; s < cat.shard_count(); ++s)
    EXPECT_EQ(cat.shard(s), snapshots[s]) << "shard " << s;
  EXPECT_TRUE(cat.shard_for("ok-0")->replicas_of("ok-0").empty());
}

TEST(ShardedCatalog, EnumeratesTheExpectedCandidates) {
  struct Expected {
    const char* repository;
    int storage_nodes;
    const char* site;
    int compute_nodes;
    double wan_mbps;
  };
  // repo-east (4 storage nodes) reaches both sites; repo-west (2) reaches
  // only hpc-pentium. Both sites have 16 nodes.
  const std::vector<Expected> em_data = {
      {"repo-east", 4, "hpc-pentium", 4, 80},
      {"repo-east", 4, "hpc-pentium", 8, 80},
      {"repo-east", 4, "hpc-pentium", 16, 80},
      {"repo-east", 4, "hpc-opteron", 4, 20},
      {"repo-east", 4, "hpc-opteron", 8, 20},
      {"repo-east", 4, "hpc-opteron", 16, 20},
      {"repo-west", 2, "hpc-pentium", 2, 30},
      {"repo-west", 2, "hpc-pentium", 4, 30},
      {"repo-west", 2, "hpc-pentium", 8, 30},
      {"repo-west", 2, "hpc-pentium", 16, 30},
  };
  for (std::size_t shards : {1u, 3u, 16u}) {
    ShardedCatalog cat(shards);
    EXPECT_TRUE(enumerate(cat, "em-data").empty()) << shards;
    populate(cat);
    const auto got = enumerate(cat, "em-data");
    ASSERT_EQ(got.size(), em_data.size()) << shards;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].replica.dataset, "em-data");
      EXPECT_EQ(got[i].replica.repository, em_data[i].repository) << i;
      EXPECT_EQ(got[i].replica.storage_nodes, em_data[i].storage_nodes) << i;
      EXPECT_EQ(got[i].compute_site, em_data[i].site) << i;
      EXPECT_EQ(got[i].compute_nodes, em_data[i].compute_nodes) << i;
      EXPECT_EQ(got[i].wan.per_link_Bps,
                sim::wan_mbps(em_data[i].wan_mbps).per_link_Bps)
          << i;
    }
    // One storage node: every power of two up to 16 on hpc-pentium.
    EXPECT_EQ(enumerate(cat, "points").size(), 5u) << shards;
    EXPECT_TRUE(enumerate(cat, "unknown").empty()) << shards;
  }
}

/// `count` random registration batches over datasets ds-0 …
/// ds-<datasets − 1>: one batch in `bulk_one_in` is a bulk batch of 2 to
/// `max_bulk` entries, the rest single entries. With `hot_one_in` > 0, one
/// entry in that many goes to the dataset "hot" instead.
std::vector<std::vector<grid::Replica>> random_batches(
    util::Rng& rng, std::uint64_t datasets, std::size_t count,
    std::uint64_t bulk_one_in, std::uint64_t max_bulk,
    std::uint64_t hot_one_in = 0) {
  std::vector<std::vector<grid::Replica>> batches(count);
  for (auto& batch : batches) {
    const std::size_t size =
        rng.next_below(bulk_one_in) == 0 ? 2 + rng.next_below(max_bulk - 1)
                                         : 1;
    for (std::size_t i = 0; i < size; ++i) {
      const bool east = rng.next_below(2) == 0;
      std::string dataset = "ds-" + std::to_string(rng.next_below(datasets));
      if (hot_one_in > 0 && rng.next_below(hot_one_in) == 0) dataset = "hot";
      batch.push_back({std::move(dataset), east ? "repo-east" : "repo-west",
                       1 + static_cast<int>(rng.next_below(east ? 8 : 4))});
    }
  }
  return batches;
}

/// Names a sort on an 8-byte name prefix can get wrong: shared 8- and
/// 16-byte prefixes, bytes >= 0x80 (char is signed on x86-64, while
/// std::string compares bytes as unsigned), embedded NULs, and names that
/// are proper prefixes of others. Every name gets a replica in one bulk
/// batch, in shuffled order, then another one by one, then a third in a
/// second bulk batch that merges into the existing leaves.
std::vector<std::vector<grid::Replica>> prefix_tie_batches(
    util::Rng& rng, std::vector<std::string>& names) {
  using namespace std::string_literals;
  names = {"abcdefgh"s,
           "abcdefgh\0"s,
           "abcdefghi"s,
           "abcdefg"s,
           "abcdefg\0"s,
           "abcdefg\0\0"s,
           "\0"s,
           "\0\0"s,
           "\x7f"s,
           "\x80"s,
           "\xff"s,
           "\xff\xff\xff\xff\xff\xff\xff\xff"s,
           "\xff\xff\xff\xff\xff\xff\xff\xff\xff"s,
           "abcdefghijklmnop"s,
           "abcdefghijklmnop\0"s,
           "abcdefghijklmnopq"s};
  const std::string prefixes[] = {"abcdefgh"s, "abcdefghijklmnop"s,
                                  "abcdefg\x80"s, "abcdefg\x7f"s,
                                  "\0\0\0\0\0\0\0\0"s,
                                  "\xff\xff\xff\xff\xff\xff\xff\xff"s};
  const char tail[] = {'\0', 'a', '\x7f', '\x80', '\xff'};
  for (int i = 0; i < 120; ++i) {
    std::string name = prefixes[rng.next_below(std::size(prefixes))];
    for (std::uint64_t n = rng.next_below(4); n > 0; --n)
      name += tail[rng.next_below(std::size(tail))];
    names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  const auto replica = [&rng](const std::string& name) {
    const bool east = rng.next_below(2) == 0;
    return grid::Replica{name, east ? "repo-east" : "repo-west",
                         1 + static_cast<int>(rng.next_below(east ? 8 : 4))};
  };
  const auto shuffled = [&rng, &names] {
    std::vector<std::string> out = names;
    for (std::size_t i = out.size(); i > 1; --i)
      std::swap(out[i - 1], out[rng.next_below(i)]);
    return out;
  };
  std::vector<std::vector<grid::Replica>> batches(1);
  for (const auto& name : shuffled()) batches.front().push_back(replica(name));
  for (const auto& name : shuffled()) batches.push_back({replica(name)});
  batches.emplace_back();
  for (const auto& name : shuffled()) batches.back().push_back(replica(name));
  return batches;
}

TEST(ShardedCatalog, RandomRegistrationsFollowTheEnumerationContract) {
  // A publish merges the stably sorted batch into the leaves it lands in,
  // after their existing entries, and cuts a long leaf only at dataset
  // boundaries; so any mix of single and bulk registrations — repeated
  // datasets, names arriving unsorted — must keep every leaf non-empty
  // and sorted, every dataset inside one leaf, and registration order
  // within each dataset. The small input keeps each shard in one leaf;
  // the large one grows many leaves per shard, splits them under
  // publishes, and holds a "hot" dataset longer than any leaf may grow.
  // The third registers prefix_tie_batches' names, whose order an 8-byte
  // name prefix cannot settle alone: there the leaf directory's prefixes
  // tie and a lookup reads the leaves' last names. After every input each
  // shard's directory must hold one entry per leaf, its last dataset's.
  struct Input {
    std::uint64_t datasets;
    std::vector<std::vector<grid::Replica>> batches;
    std::vector<std::size_t> shard_counts;
    bool many_leaves;
    /// Checked beside ds-0 … ds-<datasets − 1>.
    std::vector<std::string> names;
  };
  util::Rng rng(20070326);
  std::vector<Input> inputs;
  inputs.push_back(
      {17, random_batches(rng, 17, 60, 3, 13), {1, 3, 16}, false, {}});
  inputs.push_back(
      {3000, random_batches(rng, 3000, 300, 4, 600, 40), {1, 3}, true, {}});
  {
    using namespace std::string_literals;
    std::vector<std::string> names;
    auto batches = prefix_tie_batches(rng, names);
    // Never registered, each next to names that are.
    for (const std::string& absent :
         {"abcdefg\x01"s, "abcdefgh\0\x01"s, "abcdefghb"s, "\0\x01"s,
          "\x80\0"s, "\xff\xff\xff\xff\xff\xff\xff\xff\x01"s})
      names.push_back(absent);
    inputs.push_back({0, std::move(batches), {1, 3}, false, std::move(names)});
  }

  const auto before = [](const grid::Replica& a, const grid::Replica& b) {
    return a.dataset < b.dataset;
  };
  for (const auto& input : inputs) {
    std::vector<grid::Replica> registered = populated_replicas();
    for (const auto& batch : input.batches)
      registered.insert(registered.end(), batch.begin(), batch.end());
    std::map<std::string, std::vector<grid::Replica>> by_dataset;
    for (const auto& r : registered) by_dataset[r.dataset].push_back(r);
    // "hot" outgrows the 2 × 128 entries a leaf may reach before a cut.
    if (input.many_leaves) {
      ASSERT_GT(by_dataset["hot"].size(), 256u);
    }

    for (const std::size_t shards : input.shard_counts) {
      const std::string at = " @" + std::to_string(shards) + " shards, " +
                             std::to_string(input.datasets) + " datasets";
      ShardedCatalog sharded(shards);
      populate(sharded);
      for (const auto& batch : input.batches) {
        if (batch.size() == 1)
          sharded.register_replica(batch.front());
        else
          sharded.register_replicas(batch);
      }
      EXPECT_EQ(sharded.replica_count(), registered.size()) << at;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto shard = sharded.shard(s);
        const auto& leaves = shard->leaves;
        if (input.many_leaves) {
          EXPECT_GT(leaves.size(), 1u) << "shard " << s << at;
        }
        // The directory has one entry per leaf: its last dataset's prefix.
        ASSERT_EQ(shard->directory.size(), leaves.size()) << "shard " << s
                                                          << at;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          const auto& leaf = *leaves[i];
          ASSERT_FALSE(leaf.empty()) << "leaf " << i << " shard " << s << at;
          EXPECT_TRUE(std::is_sorted(leaf.begin(), leaf.end(), before))
              << "leaf " << i << " shard " << s << at;
          if (i > 0) {
            EXPECT_LT(leaves[i - 1]->back().dataset, leaf.front().dataset)
                << "leaf " << i << " shard " << s << at;
          }
          EXPECT_EQ(shard->directory[i], name_prefix(leaf.back().dataset))
              << "leaf " << i << " shard " << s << at;
        }
      }
      const auto topo = sharded.topology();
      std::vector<std::string> datasets = {"em-data", "points", "hot"};
      for (std::uint64_t d = 0; d < input.datasets; ++d)
        datasets.push_back("ds-" + std::to_string(d));
      datasets.insert(datasets.end(), input.names.begin(), input.names.end());
      // Never registered: before every name, inside the range, past it.
      for (const char* absent :
           {"absent", "ds-3000", "ds-17-absent", "zz-absent"})
        datasets.emplace_back(absent);
      for (const auto& dataset : datasets) {
        const auto it = by_dataset.find(dataset);
        const std::vector<grid::Replica> none;
        expect_same_candidates(
            enumerate(sharded, dataset),
            contract_candidates(it == by_dataset.end() ? none : it->second,
                                *topo, dataset),
            dataset + at);
      }
    }
  }
}

TEST(ShardedCatalog, SnapshotSurvivesLaterPublishes) {
  ShardedCatalog cat(2);
  populate(cat);
  const auto topo = cat.topology();
  const auto shard = cat.shard_for("em-data");
  const std::size_t replicas_before = shard->replicas_of("em-data").size();
  cat.register_compute_site({"late", sim::cluster_ideal(), 8});
  cat.register_replica({"em-data", "repo-east", 2});
  // The held snapshots still describe the pre-publish catalog...
  EXPECT_EQ(topo->find_compute("late"), nullptr);
  EXPECT_EQ(shard->replicas_of("em-data").size(), replicas_before);
  // ...while fresh loads see the updates (and a bumped version).
  EXPECT_NE(cat.topology()->find_compute("late"), nullptr);
  EXPECT_GT(cat.topology()->version, topo->version);
  EXPECT_EQ(cat.shard_for("em-data")->replicas_of("em-data").size(),
            replicas_before + 1);
}

TEST(ShardedCatalog, PublishCopiesOnlyTheTouchedLeaf) {
  // The claim behind a cheap publish: the next snapshot shares every leaf
  // of the previous one except the leaf the entry landed in (or the two
  // it was cut into), and a held snapshot still reads its old run.
  ShardedCatalog cat(1);
  populate(cat);
  std::vector<grid::Replica> bulk;
  for (int d = 0; d < 4000; ++d)
    bulk.push_back({"ds-" + std::to_string(d), "repo-east", 1});
  cat.register_replicas(std::move(bulk));
  ASSERT_GE(cat.shard(0)->leaves.size(), 10u);

  const auto shared_leaves = [](const ReplicaShard& prev,
                                const ReplicaShard& next) {
    std::size_t shared = 0;
    for (const auto& leaf : next.leaves)
      shared += static_cast<std::size_t>(
          std::count(prev.leaves.begin(), prev.leaves.end(), leaf));
    return shared;
  };
  bool split = false;
  for (std::size_t published = 1; !split && published <= 300; ++published) {
    const auto prev = cat.shard(0);
    const auto run = prev->replicas_of("ds-2000");
    cat.register_replica({"ds-2000", "repo-west", 1});
    const auto next = cat.shard(0);
    split = next->leaves.size() != prev->leaves.size();
    if (split) {
      EXPECT_EQ(next->leaves.size(), prev->leaves.size() + 1);
    }
    EXPECT_EQ(shared_leaves(*prev, *next), prev->leaves.size() - 1)
        << "publish " << published;
    // The bulk entry, then one per publish, in registration order.
    const auto now = next->replicas_of("ds-2000");
    ASSERT_EQ(now.size(), published + 1);
    EXPECT_EQ(now.front().repository, "repo-east");
    EXPECT_EQ(now.back().repository, "repo-west");
    const auto held = prev->replicas_of("ds-2000");
    EXPECT_EQ(held.data(), run.data());
    EXPECT_EQ(held.size(), published);
  }
  EXPECT_TRUE(split) << "300 publishes to one dataset never cut its leaf";
}

TEST(ShardedCatalog, BulkLoadLayoutMatchesGolden) {
  // select-serve's replica rule at 40,000 datasets over 64 shards, a
  // second bulk batch that merges into the existing leaves and adds new
  // datasets between them, then single publishes of new and existing
  // datasets. Each shard's leaf sizes and an FNV-1a over its entries in
  // order pin the layout against tests/golden/catalog_bulk_load.txt: an
  // entry moved within a dataset, or a leaf cut elsewhere, changes a line.
  constexpr std::size_t kDatasets = 40000;
  constexpr std::size_t kSeed = 20070326;
  const auto repo = [](std::size_t r) { return "repo-" + std::to_string(r); };
  ShardedCatalog cat(64);
  for (std::size_t r = 0; r < 8; ++r)
    cat.register_repository_site({repo(r), sim::cluster_pentium_myrinet(), 8});
  std::vector<grid::Replica> replicas;
  for (std::size_t d = 0; d < kDatasets; ++d)
    for (std::size_t r = 0; r <= d % 4; ++r)
      replicas.push_back({"ds-" + std::to_string(d),
                          repo((d + 3 * r + kSeed) % 8),
                          1 << ((d + kSeed) % 3)});
  cat.register_replicas(std::move(replicas));
  std::vector<grid::Replica> more;
  for (std::size_t d = 5; d < kDatasets + 4000; d += 7)
    more.push_back({"ds-" + std::to_string(d), repo(d % 8), 2});
  cat.register_replicas(std::move(more));
  for (std::size_t i = 0; i < 200; ++i) {
    cat.register_replica({"pub-" + std::to_string(i), repo(i % 8), 1});
    cat.register_replica(
        {"ds-" + std::to_string(i * 191 % kDatasets), repo((i + 1) % 8), 4});
  }

  std::ostringstream out;
  for (std::size_t s = 0; s < cat.shard_count(); ++s) {
    std::uint64_t h = 1469598103934665603ull;
    const auto bytes = [&h](const void* data, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<const unsigned char*>(data)[i];
        h *= 1099511628211ull;
      }
    };
    out << "shard " << s << " leaves";
    for (const auto& leaf : cat.shard(s)->leaves) {
      out << ' ' << leaf->size();
      for (const grid::Replica& r : *leaf) {
        bytes(r.dataset.c_str(), r.dataset.size() + 1);
        bytes(r.repository.c_str(), r.repository.size() + 1);
        bytes(&r.storage_nodes, sizeof r.storage_nodes);
      }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    out << " fnv1a " << hex << '\n';
  }
  std::ifstream golden(FGP_TEST_GOLDEN_DIR "/catalog_bulk_load.txt",
                       std::ios::binary);
  ASSERT_TRUE(golden) << "missing golden catalog_bulk_load.txt";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str());
}

// ---------------------------------------------------------------------------
// ProfileCache

TEST(ProfileCache, ResolveCompilesOncePerTopologyVersion) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  unsigned long long hits = 0;
  unsigned long long misses = 0;
  const auto topo = cat.topology();
  const auto first = cache.resolve("em", topo, &hits, &misses);
  ASSERT_NE(first, nullptr);
  const auto second = cache.resolve("em", topo, &hits, &misses);
  EXPECT_EQ(first.get(), second.get());  // compiled state reused
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);

  // The link table is repository-major over the registered sites:
  // repo-east reaches both sites, repo-west only hpc-pentium.
  const auto link_mbps = [](const CompiledApp& c) {
    std::vector<double> out;
    for (const sim::WanSpec* wan : c.links)
      out.push_back(wan == nullptr ? 0.0 : wan->per_link_Bps * 8.0 / 1e6);
    return out;
  };
  EXPECT_EQ(link_mbps(*first), (std::vector<double>{80, 20, 30, 0}));

  // A topology publish invalidates the compiled state.
  cat.register_compute_site({"late", sim::cluster_opteron_infiniband(), 4});
  const auto third = cache.resolve("em", cat.topology(), &hits, &misses);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(misses, 2u);
  EXPECT_EQ(third->site_predictors.size(), 3u);
  EXPECT_EQ(link_mbps(*third), (std::vector<double>{80, 20, 0, 30, 0, 0}));
}

TEST(ProfileCache, UnknownAppResolvesNull) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  EXPECT_EQ(cache.resolve("nope", cat.topology()), nullptr);
}

TEST(ProfileCache, SitePredictorsMirrorSelectorRules) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  // No scalers: the opteron site must be unpredictable, the pentium site
  // predictable without hetero scaling.
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options());
  const auto compiled = cache.resolve("em", cat.topology());
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(compiled->site_predictors.size(), 2u);
  EXPECT_TRUE(compiled->site_predictors[0].predictable());
  EXPECT_FALSE(compiled->site_predictors[0].uses_hetero_scaling());
  EXPECT_FALSE(compiled->site_predictors[1].predictable());
}

// ---------------------------------------------------------------------------
// SelectionService

SelectionQuery em_query(double bytes = 700e6, int top_k = 4) {
  SelectionQuery q;
  q.app = "em";
  q.dataset = "em-data";
  q.dataset_bytes = bytes;
  q.top_k = top_k;
  return q;
}

TEST(SelectionService, BadQueriesFailAloneWithoutThrowing) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());                       // ok
  batch.push_back({});                               // empty app/dataset
  batch.push_back({"nope", "em-data", 1e6, 1});      // unknown app
  batch.push_back({"em", "missing", 1e6, 1});        // unknown dataset
  batch.push_back({"em", "em-data", -1.0, 1});       // bad bytes
  batch.push_back({"em", "em-data", 1e6, 0});        // bad top_k
  const auto results = svc.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_TRUE(results[0].ok());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_FALSE(results[i].ok()) << i;
  EXPECT_THROW(results[1].best(), util::Error);
}

TEST(SelectionService, TopKBoundsTheRanking) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  const auto full = svc.query(em_query(700e6, 1 << 20));
  const auto top2 = svc.query(em_query(700e6, 2));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(top2.ok());
  ASSERT_GE(full.ranked.size(), 2u);
  ASSERT_EQ(top2.ranked.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_candidate(top2.ranked[i].candidate,
                               full.ranked[i].candidate));
  }
  EXPECT_EQ(full.candidates_considered, top2.candidates_considered);
}

TEST(SelectionService, PicksTheTrulyCheapestCandidate) {
  const auto ds = make_sum_dataset(32, 64, 200.0);

  ShardedCatalog catalog(1);
  catalog.register_repository_site(
      {"repo-near", sim::cluster_pentium_myrinet(), 4});
  catalog.register_repository_site(
      {"repo-far", sim::cluster_pentium_myrinet(), 8});
  catalog.register_compute_site({"hpc", sim::cluster_pentium_myrinet(), 16});
  catalog.register_link("repo-near", "hpc", sim::wan_mbps(200));
  catalog.register_link("repo-far", "hpc", sim::wan_mbps(10));
  catalog.register_replica({"data", "repo-near", 2});
  catalog.register_replica({"data", "repo-far", 8});

  // Profile on the same compute cluster.
  auto profile_setup = pentium_setup(&ds, 1, 1);
  SumKernel profile_kernel;
  const core::Profile p =
      core::ProfileCollector::collect(profile_setup, profile_kernel);

  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes = {core::RoSizeClass::Constant,
                  core::GlobalReductionClass::LinearConstant};
  SelectionService svc(&catalog);
  svc.register_app(p, opts);

  const auto result =
      svc.query({p.app, "data", ds.total_virtual_bytes(), 1 << 20});
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& ranked = result.ranked;
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted.total(), ranked[i].predicted.total());

  // Ground truth: simulate every candidate and find the true optimum.
  double best_actual = 1e300;
  grid::Candidate best_candidate;
  const auto topo = catalog.topology();
  for (const auto& cand : enumerate(catalog, "data")) {
    freeride::JobSetup setup;
    setup.dataset = &ds;
    setup.data_cluster =
        topo->find_repository(cand.replica.repository)->cluster;
    setup.compute_cluster = topo->find_compute(cand.compute_site)->cluster;
    setup.wan = cand.wan;
    setup.config.data_nodes = cand.replica.storage_nodes;
    setup.config.compute_nodes = cand.compute_nodes;
    SumKernel k;
    const double t = freeride::Runtime().run(setup, k).timing.total.total();
    if (t < best_actual) {
      best_actual = t;
      best_candidate = cand;
    }
  }
  const auto& chosen = result.best();
  EXPECT_EQ(chosen.candidate.replica.repository,
            best_candidate.replica.repository);
  EXPECT_EQ(chosen.candidate.compute_nodes, best_candidate.compute_nodes);
  // The predicted cost of the winner is close to its simulated cost.
  EXPECT_LT(util::relative_error(best_actual, chosen.predicted.total()), 0.15);
}

TEST(SelectionService, SkipsClustersWithoutScalingFactors) {
  const auto ds = make_sum_dataset(8, 32);
  ShardedCatalog catalog(1);
  catalog.register_repository_site(
      {"repo", sim::cluster_pentium_myrinet(), 2});
  catalog.register_compute_site(
      {"other", sim::cluster_opteron_infiniband(), 8});
  catalog.register_link("repo", "other", sim::wan_mbps(50));
  catalog.register_replica({"data", "repo", 2});

  auto profile_setup = pentium_setup(&ds, 1, 1);
  SumKernel kernel;
  const core::Profile p = core::ProfileCollector::collect(profile_setup, kernel);
  core::PredictorOptions opts;
  opts.ipc = core::measure_ipc(profile_setup.compute_cluster);
  const SelectionQuery query{p.app, "data", ds.total_virtual_bytes(), 1 << 20};

  SelectionService no_scalers(&catalog);
  no_scalers.register_app(p, opts);
  const auto none = no_scalers.query(query);
  EXPECT_FALSE(none.ok());
  EXPECT_TRUE(none.ranked.empty());
  EXPECT_THROW(none.best(), util::Error);

  SelectionService with_scalers(&catalog);
  with_scalers.register_app(
      p, opts, {{"opteron-infiniband", core::ScalingFactors{0.5, 0.6, 0.3}}});
  const auto scaled = with_scalers.query(query);
  ASSERT_TRUE(scaled.ok()) << scaled.error;
  EXPECT_FALSE(scaled.ranked.empty());
  for (const auto& rc : scaled.ranked) EXPECT_TRUE(rc.used_hetero_scaling);
}

TEST(SelectionService, EqualCostCandidatesRankByIdentity) {
  // Two interchangeable repositories, registered in reverse name order:
  // every candidate on repo-b costs exactly what its repo-a twin does, so
  // only the identity tie-break orders each pair.
  const auto pentium = sim::cluster_pentium_myrinet();
  ShardedCatalog cat(1);
  cat.register_repository_site({"repo-b", pentium, 4});
  cat.register_repository_site({"repo-a", pentium, 4});
  cat.register_compute_site({"hpc", pentium, 8});
  cat.register_link("repo-b", "hpc", sim::wan_mbps(50));
  cat.register_link("repo-a", "hpc", sim::wan_mbps(50));
  cat.register_replica({"data", "repo-b", 2});
  cat.register_replica({"data", "repo-a", 2});
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options());

  const auto result = svc.query({"em", "data", 700e6, 1 << 20});
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.ranked.size(), 6u);  // c in {2, 4, 8} per repository
  for (std::size_t i = 0; i < result.ranked.size(); i += 2) {
    const auto& first = result.ranked[i];
    const auto& second = result.ranked[i + 1];
    EXPECT_EQ(first.predicted.total(), second.predicted.total()) << i;
    EXPECT_EQ(first.candidate.compute_nodes, second.candidate.compute_nodes);
    EXPECT_EQ(first.candidate.replica.repository, "repo-a") << i;
    EXPECT_EQ(second.candidate.replica.repository, "repo-b") << i;
  }
}

/// Builds a larger catalog + mixed query stream for the determinism and
/// concurrency tests: ds-0 … ds-<datasets − 1> at 1-3 replicas each.
struct BigFixture {
  ShardedCatalog catalog;
  std::vector<SelectionQuery> queries;

  explicit BigFixture(std::size_t shards = 16, int datasets = 400)
      : catalog(shards) {
    const auto pentium = sim::cluster_pentium_myrinet();
    const auto opteron = sim::cluster_opteron_infiniband();
    for (int r = 0; r < 4; ++r)
      catalog.register_repository_site(
          {"repo-" + std::to_string(r), pentium, 8});
    for (int c = 0; c < 6; ++c)
      catalog.register_compute_site(
          {"hpc-" + std::to_string(c), c % 2 == 0 ? pentium : opteron, 16});
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 6; ++c)
        if ((r + c) % 3 != 0)  // leave some pairs unreachable
          catalog.register_link("repo-" + std::to_string(r),
                                "hpc-" + std::to_string(c),
                                sim::wan_mbps(20.0 + 10.0 * (r + c)));
    std::vector<grid::Replica> replicas;
    for (int d = 0; d < datasets; ++d)
      for (int r = 0; r < 1 + d % 3; ++r)
        replicas.push_back({"ds-" + std::to_string(d),
                            "repo-" + std::to_string((d + r) % 4),
                            1 << (d % 3)});
    catalog.register_replicas(std::move(replicas));

    util::Rng rng(2026);
    for (int i = 0; i < 96; ++i) {
      SelectionQuery q;
      q.app = i % 3 == 0 ? "em" : "kmeans";
      q.dataset = "ds-" + std::to_string(rng.next_below(
                              static_cast<std::uint64_t>(datasets)));
      q.dataset_bytes = rng.uniform(100e6, 4e9);
      q.top_k = 1 + static_cast<int>(rng.next_below(8));
      queries.push_back(std::move(q));
    }
  }

  /// Registers em and kmeans on a SelectionService or a ProfileCache.
  template <class Registrar>
  void register_apps(Registrar& registrar) const {
    auto em_opts = synthetic_options();
    em_opts.classes.ro = core::RoSizeClass::LinearWithData;
    registrar.register_app(synthetic_profile("em", "pentium-myrinet"),
                           em_opts, opteron_scalers());
    registrar.register_app(synthetic_profile("kmeans", "pentium-myrinet"),
                           synthetic_options(), opteron_scalers());
  }
};

void expect_identical(const std::vector<SelectionResult>& a,
                      const std::vector<SelectionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].error, b[i].error) << i;
    EXPECT_EQ(a[i].candidates_considered, b[i].candidates_considered) << i;
    ASSERT_EQ(a[i].ranked.size(), b[i].ranked.size()) << i;
    for (std::size_t j = 0; j < a[i].ranked.size(); ++j) {
      EXPECT_TRUE(same_candidate(a[i].ranked[j].candidate,
                                 b[i].ranked[j].candidate))
          << i << "/" << j;
      // Bit-identical predictions, not merely close ones.
      EXPECT_EQ(a[i].ranked[j].predicted.disk, b[i].ranked[j].predicted.disk);
      EXPECT_EQ(a[i].ranked[j].predicted.network,
                b[i].ranked[j].predicted.network);
      EXPECT_EQ(a[i].ranked[j].predicted.compute,
                b[i].ranked[j].predicted.compute);
    }
  }
}

TEST(SelectionService, BatchBitIdenticalSerialVsPools128) {
  const BigFixture fx;
  SelectionService serial(&fx.catalog);
  fx.register_apps(serial);
  const auto reference = serial.query_batch(fx.queries);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    SelectionService pooled(&fx.catalog, &pool);
    fx.register_apps(pooled);
    expect_identical(pooled.query_batch(fx.queries), reference);
  }
}

TEST(SelectionService, DeterministicCountersAreByteIdenticalAcrossPools) {
  const BigFixture fx;
  // A batch whose counters are known exactly. Every query that passes the
  // field checks and names a registered app counts one cache hit or miss
  // (the first em and the first kmeans query of the service miss) and
  // touches its dataset's shard, "missing" included: it fails only when
  // ranked. An unknown app, asked twice, and the malformed queries count
  // nothing and touch no shard. Of the 16 shards, ds-1, ds-18 and ds-21
  // share shard 4, ds-6, ds-26 and "missing" share shard 1, and ds-0 is
  // on shard 7: three shards.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<SelectionQuery> mixed = {
      {"nope", "ds-2", 1e9, 1},      // unknown app
      {"em", "ds-1", 1e9, 3},        // miss, shard 4
      {"kmeans", "ds-18", 2e9, 1},   // miss, shard 4
      {"", "ds-3", 1e9, 1},          // no app
      {"em", "ds-21", 5e8, 8},       // hit, shard 4
      {"em", "", 1e9, 1},            // no dataset
      {"nope", "ds-1", 1e9, 1},      // the unknown app again
      {"kmeans", "ds-6", 1e9, 2},    // hit, shard 1
      {"em", "ds-5", -1.0, 1},       // negative bytes
      {"kmeans", "ds-5", inf, 1},    // infinite bytes
      {"em", "ds-5", nan, 1},        // NaN bytes
      {"kmeans", "ds-9", 1e9, 0},    // top_k < 1
      {"em", "missing", 1e9, 1},     // hit, shard 1, no replica
      {"kmeans", "ds-26", 3e9, 4},   // hit, shard 1
      {"em", "ds-0", 1e9, 1}};       // hit, shard 7
  ASSERT_EQ(shard_of("ds-1", 16), 4u);
  ASSERT_EQ(shard_of("missing", 16), 1u);
  ASSERT_EQ(shard_of("ds-0", 16), 7u);

  std::vector<std::string> snapshots;
  std::vector<std::string> mixed_snapshots;
  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);
    svc.query_batch(fx.queries);
    svc.query_batch(fx.queries);  // second batch: cache hits this time
    EXPECT_EQ(metrics.value("service.queries"),
              2.0 * static_cast<double>(fx.queries.size()));
    EXPECT_GT(metrics.value("service.cache_hits"), 0.0);
    EXPECT_EQ(metrics.value("service.cache_misses"), 2.0);  // em + kmeans
    EXPECT_GT(metrics.value("service.shard_fanout"), 0.0);
    snapshots.push_back(metrics.to_json(false));

    const std::string at = " @" + std::to_string(threads) + " threads";
    obs::Registry exact;
    SelectionService mixed_svc(&fx.catalog, pool.get(), &exact);
    fx.register_apps(mixed_svc);
    const auto results = mixed_svc.query_batch(mixed);
    ASSERT_EQ(results.size(), mixed.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool answered = i == 1 || i == 2 || i == 4 || i == 7 || i == 13 ||
                            i == 14;
      EXPECT_EQ(results[i].ok(), answered) << "query " << i << at;
    }
    EXPECT_EQ(exact.value("service.queries"), 15.0) << at;
    EXPECT_EQ(exact.value("service.cache_hits"), 5.0) << at;
    EXPECT_EQ(exact.value("service.cache_misses"), 2.0) << at;
    EXPECT_EQ(exact.value("service.shard_fanout"), 3.0) << at;
    mixed_svc.query_batch(mixed);  // every known app hits now
    EXPECT_EQ(exact.value("service.queries"), 30.0) << at;
    EXPECT_EQ(exact.value("service.cache_hits"), 12.0) << at;
    EXPECT_EQ(exact.value("service.cache_misses"), 2.0) << at;
    EXPECT_EQ(exact.value("service.shard_fanout"), 6.0) << at;
    mixed_snapshots.push_back(exact.to_json(false));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_EQ(mixed_snapshots[0], mixed_snapshots[1]);
  EXPECT_EQ(mixed_snapshots[0], mixed_snapshots[2]);
}

TEST(SelectionService, RankingMatchesLonghandEnumeration) {
  // Each expected answer is built without the service: the catalog's
  // enumeration over the same snapshots, predictors from a separate cache,
  // a stable sort on (total, repository, site, storage nodes, compute
  // nodes), and the first top_k. Two inputs: BigFixture's stream over 16
  // shards, and a one-shard catalog of 3,000 datasets cut into many
  // leaves, asked for every leaf's first and last dataset and for names
  // no replica has — one between each pair of neighbouring leaves
  // ("ds-29-absent" sorts before "ds-290") and two past the last leaf.
  // Those fail with the "no replica" error and count no candidate.
  const BigFixture fx;
  const BigFixture many(1, 3000);
  std::vector<SelectionQuery> leaf_queries;
  {
    const auto& leaves = many.catalog.shard(0)->leaves;
    ASSERT_GE(leaves.size(), 20u);
    util::Rng rng(7);
    const auto ask = [&](std::string dataset) {
      leaf_queries.push_back({leaf_queries.size() % 2 == 0 ? "em" : "kmeans",
                              std::move(dataset), rng.uniform(100e6, 4e9),
                              1 + static_cast<int>(rng.next_below(8))});
    };
    for (const auto& leaf : leaves) {
      ask(leaf->front().dataset);
      ask(leaf->back().dataset);
      ask(leaf->back().dataset + "-absent");
    }
    ask("zz-absent");
  }
  struct Input {
    const BigFixture* fixture;
    std::vector<SelectionQuery> queries;
  };
  struct Expected {
    grid::Candidate candidate;
    core::PredictedTime predicted;
    double total = 0.0;
    bool hetero = false;
  };
  for (const Input& input :
       {Input{&fx, fx.queries}, Input{&many, leaf_queries}}) {
    const ShardedCatalog& catalog = input.fixture->catalog;
    SelectionService svc(&catalog);
    input.fixture->register_apps(svc);
    ProfileCache cache;
    input.fixture->register_apps(cache);
    const auto topo = catalog.topology();
    for (const bool whole_ranking : {false, true}) {
      std::vector<SelectionQuery> queries = input.queries;
      if (whole_ranking)
        for (auto& q : queries) q.top_k = 1 << 20;
      const auto results = svc.query_batch(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const SelectionQuery& q = queries[i];
        const auto compiled = cache.resolve(q.app, topo);
        ASSERT_NE(compiled, nullptr);
        std::vector<Expected> expected;
        for (const auto& candidate : ShardedCatalog::enumerate_candidates(
                 *topo, *catalog.shard_for(q.dataset), q.dataset)) {
          const auto* site = topo->find_compute(candidate.compute_site);
          const SitePredictor& predictor =
              compiled->site_predictors[static_cast<std::size_t>(
                  site - topo->compute_sites.data())];
          if (!predictor.predictable()) continue;
          core::ProfileConfig target;
          target.data_nodes = candidate.replica.storage_nodes;
          target.compute_nodes = candidate.compute_nodes;
          target.dataset_bytes = q.dataset_bytes;
          target.bandwidth_Bps = candidate.wan.per_link_Bps;
          const core::PredictedTime predicted = predictor.predict(target);
          expected.push_back({candidate, predicted, predicted.total(),
                              predictor.uses_hetero_scaling()});
        }
        const std::string context = "query " + std::to_string(i) + " (" +
                                    q.dataset + ") top_k " +
                                    std::to_string(q.top_k);
        const bool absent = q.dataset.find("absent") != std::string::npos;
        ASSERT_EQ(expected.empty(), absent) << context;
        if (absent) {
          EXPECT_EQ(results[i].error,
                    "no replica of dataset '" + q.dataset + "'")
              << context;
          EXPECT_EQ(results[i].candidates_considered, 0u) << context;
          EXPECT_TRUE(results[i].ranked.empty()) << context;
          continue;
        }
        ASSERT_TRUE(results[i].ok()) << context << ": " << results[i].error;
        EXPECT_EQ(results[i].candidates_considered, expected.size()) << context;
        std::stable_sort(
            expected.begin(), expected.end(),
            [](const Expected& a, const Expected& b) {
              return std::tie(a.total, a.candidate.replica.repository,
                              a.candidate.compute_site,
                              a.candidate.replica.storage_nodes,
                              a.candidate.compute_nodes) <
                     std::tie(b.total, b.candidate.replica.repository,
                              b.candidate.compute_site,
                              b.candidate.replica.storage_nodes,
                              b.candidate.compute_nodes);
            });
        expected.resize(std::min(expected.size(),
                                 static_cast<std::size_t>(q.top_k)));
        const auto& ranked = results[i].ranked;
        ASSERT_EQ(ranked.size(), expected.size()) << context;
        for (std::size_t j = 0; j < ranked.size(); ++j) {
          const auto& got = ranked[j];
          const auto& want = expected[j];
          EXPECT_TRUE(same_candidate(got.candidate, want.candidate))
              << context << " rank " << j;
          EXPECT_EQ(got.predicted.disk, want.predicted.disk) << context;
          EXPECT_EQ(got.predicted.network, want.predicted.network) << context;
          EXPECT_EQ(got.predicted.compute, want.predicted.compute) << context;
          EXPECT_EQ(got.predicted.compute_local, want.predicted.compute_local)
              << context;
          EXPECT_EQ(got.predicted.ro_comm, want.predicted.ro_comm) << context;
          EXPECT_EQ(got.predicted.global_red, want.predicted.global_red)
              << context;
          EXPECT_EQ(got.used_hetero_scaling, want.hetero) << context;
        }
      }
    }
  }
}

TEST(SelectionService, SitesAndLinksRegisteredBetweenBatchesAreRanked) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  const std::vector<SelectionQuery> batch = {
      {"em", "em-data", 700e6, 1 << 20}, {"em", "points", 300e6, 1 << 20}};
  const auto has_pair = [](const SelectionResult& r, const std::string& repo,
                           const std::string& site) {
    return std::any_of(r.ranked.begin(), r.ranked.end(),
                       [&](const RankedCandidate& rc) {
                         return rc.candidate.replica.repository == repo &&
                                rc.candidate.compute_site == site;
                       });
  };
  const auto before = svc.query_batch(batch);
  ASSERT_TRUE(before[0].ok()) << before[0].error;
  EXPECT_FALSE(has_pair(before[0], "repo-west", "hpc-opteron"));

  // A site appended after the cache compiled, a link to it, and a link
  // for a pair that was unreachable.
  cat.register_compute_site({"hpc-late", sim::cluster_pentium_myrinet(), 8});
  cat.register_link("repo-west", "hpc-late", sim::wan_mbps(55));
  cat.register_link("repo-west", "hpc-opteron", sim::wan_mbps(45));
  const auto after = svc.query_batch(batch);
  for (const auto& r : after) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(has_pair(r, "repo-west", "hpc-late"));
    EXPECT_TRUE(has_pair(r, "repo-west", "hpc-opteron"));
    EXPECT_FALSE(has_pair(r, "repo-east", "hpc-late"));  // no link
  }
  EXPECT_GT(after[0].candidates_considered, before[0].candidates_considered);
  // Every ranked pair is costed at its own link's bandwidth.
  const auto topo = cat.topology();
  for (const auto& r : after)
    for (const auto& rc : r.ranked) {
      const auto* wan = topo->find_link(rc.candidate.replica.repository,
                                        rc.candidate.compute_site);
      ASSERT_NE(wan, nullptr);
      EXPECT_EQ(rc.candidate.wan.per_link_Bps, wan->per_link_Bps)
          << rc.candidate.replica.repository << " -> "
          << rc.candidate.compute_site;
    }

  SelectionService fresh(&cat);
  fresh.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  expect_identical(after, fresh.query_batch(batch));
}

TEST(SelectionService, BatchLatencyHistogramLandsInHostDomain) {
  const BigFixture fx;
  obs::Registry metrics;
  SelectionService svc(&fx.catalog, nullptr, &metrics);
  fx.register_apps(svc);
  svc.query_batch(fx.queries);
  const std::string with_host = metrics.to_json(true);
  const std::string without = metrics.to_json(false);
  EXPECT_NE(with_host.find("service.batch_seconds"), std::string::npos);
  EXPECT_EQ(without.find("service.batch_seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent readers vs snapshot swaps (TSan stress targets)

TEST(SelectionService, ConcurrentQueriesRaceSnapshotSwaps) {
  BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  // One replica of a fresh dataset exists up front; the writer keeps
  // publishing more replicas and topology bumps while readers query.
  // Filler gives every shard several leaves, so the writer's publishes
  // share and cut leaves that readers hold spans into.
  std::vector<grid::Replica> filler;
  for (int i = 0; i < 16000; ++i)
    filler.push_back({"filler-" + std::to_string(i / 2),
                      "repo-" + std::to_string(i % 4), 1});
  fx.catalog.register_replicas(std::move(filler));
  fx.catalog.register_replica({"hot", "repo-0", 1});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Bounded: every publish copies the whole topology, so an unbounded
    // writer on a small host turns quadratic.
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      fx.catalog.register_replica({"hot", "repo-" + std::to_string(i % 4),
                                   1 << (i % 3)});
      fx.catalog.register_compute_site(
          {"swap-" + std::to_string(i), sim::cluster_pentium_myrinet(), 4});
      // Snapshot-skew window: a batch that captured the topology before
      // these three publishes but loads the shard after them sees a "hot"
      // replica whose repository is missing from its topology. The service
      // must rank it as unreachable for that batch, not abort.
      const std::string fresh = "fresh-" + std::to_string(i);
      fx.catalog.register_repository_site(
          {fresh, sim::cluster_pentium_myrinet(), 4});
      fx.catalog.register_link(fresh, "hpc-1", sim::wan_mbps(40.0));
      fx.catalog.register_replica({"hot", fresh, 1});
    }
  });

  SelectionQuery hot;
  hot.app = "em";
  hot.dataset = "hot";
  hot.dataset_bytes = 1e9;
  hot.top_k = 3;
  std::vector<SelectionQuery> batch(16, hot);
  std::size_t last_considered = 0;
  for (int round = 0; round < 50; ++round) {
    const auto results = svc.query_batch(batch);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.error;
      // Replicas only accumulate, so within one batch (one shard
      // snapshot) every slot agrees, and across batches the candidate
      // count never shrinks.
      EXPECT_EQ(r.candidates_considered,
                results.front().candidates_considered);
    }
    EXPECT_GE(results.front().candidates_considered, last_considered);
    last_considered = results.front().candidates_considered;
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Service observability (PR 9): attaching the full instrumentation set
// must not perturb what the service computes.

TEST(SelectionService, ObserversDoNotChangeRankingsOrDeterministicMetrics) {
  const BigFixture fx;
  // Uninstrumented reference.
  obs::Registry plain_metrics;
  SelectionService plain(&fx.catalog, nullptr, &plain_metrics);
  fx.register_apps(plain);
  const auto reference = plain.query_batch(fx.queries);
  const std::string reference_metrics = plain_metrics.to_json(false);

  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);

    obs::TraceRecorder trace;
    trace.enable_host(true);
    obs::SlowQueryLog slowlog(0.0);  // threshold 0: every query logs
    obs::HdrHistogram latency;
    ServiceObservers observers;
    observers.trace = &trace;
    observers.slowlog = &slowlog;
    observers.latency = &latency;
    svc.set_observers(observers);

    expect_identical(svc.query_batch(fx.queries), reference);
    EXPECT_EQ(metrics.to_json(false), reference_metrics)
        << "instrumentation leaked into the deterministic domain";

    // The instrumentation itself saw every query: one latency sample and
    // one slow-query entry each, three phase spans plus one span per
    // query in the trace.
    EXPECT_EQ(latency.count(), fx.queries.size());
    EXPECT_GT(latency.quantile(0.99), 0.0);
    EXPECT_EQ(slowlog.seen(), fx.queries.size());
    EXPECT_EQ(trace.event_count(), fx.queries.size() + 3);
    const auto v = obs::validate_report_text(trace.to_chrome_json(true));
    EXPECT_EQ(v.kind, obs::ReportKind::Trace);
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
    // Latency is wall-clock: every service span is Host-domain and gone
    // from the byte-comparison export.
    EXPECT_EQ(trace.to_chrome_json(false).find("service/query"),
              std::string::npos);
  }
}

TEST(SelectionService, SlowQueryLogRecordsFailedQueriesWithTheirError) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  obs::SlowQueryLog slowlog(0.0);
  ServiceObservers observers;
  observers.slowlog = &slowlog;
  svc.set_observers(observers);

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());
  batch.push_back({"em", "missing", 1e6, 1});  // unknown dataset
  svc.query_batch(batch);
  const auto entries = slowlog.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].chosen.empty());
  EXPECT_TRUE(entries[0].error.empty());
  EXPECT_TRUE(entries[1].chosen.empty());
  EXPECT_FALSE(entries[1].error.empty());
}

TEST(SelectionService, ConcurrentBatchesShareOneHdrRecorderAndSlowlog) {
  // TSan stress target (CI runs *Concurrent* under --gtest_repeat): two
  // callers drive query_batch into one shared observer set. Per-task
  // latency slots are index-owned; the only cross-batch state is the
  // batch-end merge under the service's latency mutex and the internally
  // locked slowlog/trace sinks.
  const BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::SlowQueryLog slowlog(0.0, 32);
  obs::HdrHistogram latency;
  ServiceObservers observers;
  observers.trace = &trace;
  observers.slowlog = &slowlog;
  observers.latency = &latency;
  svc.set_observers(observers);

  constexpr std::size_t kRounds = 5;
  std::thread other([&] {
    for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  });
  for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  other.join();

  const std::size_t total = 2 * kRounds * fx.queries.size();
  EXPECT_EQ(latency.count(), total);
  EXPECT_EQ(slowlog.seen(), total);
  EXPECT_EQ(slowlog.entries().size(), 32u);
  EXPECT_EQ(trace.event_count(), 2 * kRounds * (fx.queries.size() + 3));
}

TEST(ProfileCache, ConcurrentResolveRacesTopologyPublishes) {
  ShardedCatalog cat(4);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      cat.register_compute_site(
          {"cache-swap-" + std::to_string(i),
           sim::cluster_opteron_infiniband(), 4});
    }
  });
  util::ThreadPool pool(8);
  pool.parallel_for(256, [&](std::size_t) {
    const auto topo = cat.topology();
    const auto compiled = cache.resolve("em", topo);
    ASSERT_NE(compiled, nullptr);
    // The compiled snapshot is internally consistent with the topology
    // it was compiled against — even if that topology is already stale.
    ASSERT_EQ(compiled->site_predictors.size(),
              compiled->topology->compute_sites.size());
    ASSERT_EQ(compiled->links.size(),
              compiled->topology->repository_sites.size() *
                  compiled->topology->compute_sites.size());
  });
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Config / query parsing

TEST(ServiceConfig, DefaultsAndOverridesParse) {
  const auto def = parse_service_config("{}");
  EXPECT_EQ(def.shards, 16);
  EXPECT_EQ(def.max_top_k, 64);
  const auto cfg = parse_service_config(
      R"({"shards": 64, "max_top_k": 8, "max_batch": 1000})");
  EXPECT_EQ(cfg.shards, 64);
  EXPECT_EQ(cfg.max_top_k, 8);
  EXPECT_EQ(cfg.max_batch, 1000);
}

TEST(ServiceConfig, RejectsHostileValuesTyped) {
  EXPECT_THROW(parse_service_config("not json"), util::SerializationError);
  EXPECT_THROW(parse_service_config("[]"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 0})"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 4097})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 2.5})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": "many"})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"sharks": 4})"), util::ConfigError);
}

TEST(ServiceConfig, QueryBatchParsesAndEnforcesLimits) {
  ServiceConfig cfg;
  cfg.max_top_k = 4;
  cfg.max_batch = 2;
  const auto queries = parse_query_batch(
      R"([{"app": "em", "dataset": "ds-1", "dataset_bytes": 1e9,
           "top_k": 4},
          {"app": "kmeans", "dataset": "ds-2", "dataset_bytes": 2e8}])",
      cfg);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].app, "em");
  EXPECT_EQ(queries[0].top_k, 4);
  EXPECT_EQ(queries[1].top_k, 1);

  EXPECT_THROW(parse_query_batch(
                   R"([{"app": "a", "dataset": "d", "dataset_bytes": 1,
                        "top_k": 5}])",
                   cfg),
               util::ConfigError);
  EXPECT_THROW(
      parse_query_batch(
          R"([{"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1}])",
          cfg),
      util::ConfigError);
}

}  // namespace
}  // namespace fgp::service
