// catalog.h — the records of the grid information service.
//
// The paper assumes "a standard grid service can identify such potential
// resources": r replica sites holding the dataset and c candidate compute
// configurations. These are the records that service deals in: compute
// sites, repository sites, dataset replicas, and the (replica,
// configuration) candidates the resource-selection framework must cost
// out. service::ShardedCatalog registers and enumerates them.
#pragma once

#include <string>

#include "sim/cluster.h"
#include "sim/network.h"

namespace fgp::grid {

using SiteId = std::string;

/// A cluster offering computation.
struct ComputeSite {
  SiteId id;
  sim::ClusterSpec cluster;
  int available_nodes = 0;
};

/// A cluster hosting datasets (data repository).
struct RepositorySite {
  SiteId id;
  sim::ClusterSpec cluster;
  int available_nodes = 0;
};

/// One replica of a dataset: which repository hosts it and across how many
/// storage nodes the chunks are declustered.
struct Replica {
  std::string dataset;
  SiteId repository;
  int storage_nodes = 0;
};

/// A candidate resource mapping to be costed by the prediction framework.
struct Candidate {
  Replica replica;
  SiteId compute_site;
  int compute_nodes = 0;
  sim::WanSpec wan;  ///< link between the replica's repository and the site
};

}  // namespace fgp::grid
