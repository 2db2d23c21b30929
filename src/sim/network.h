// network.h — the wide-area pipe between the data repository cluster and
// the compute cluster.
//
// The prediction model's "b" is the bandwidth available to each data-server
// node for its data-movement task (what a bandwidth-estimation service such
// as the ones the paper cites [23, 28, 35, 36] would report). Aggregate
// throughput therefore grows with the number of storage nodes — matching
// the model's n/n̂ scaling — until the optional shared backbone capacity
// saturates, which is one of the non-idealities the linear model misses.
// Figures 9 and 10 of the paper vary b synthetically (500 and 250 Kbps).
#pragma once

namespace fgp::sim {

/// WAN between repository and compute clusters.
struct WanSpec {
  double per_link_Bps = 10e6;  ///< the model's "b": bandwidth per sender
  /// Shared backbone capacity across all concurrent senders. Senders split
  /// it evenly (TCP-fair) when it binds.
  double aggregate_cap_Bps = 1e18;
  double latency_s = 1e-3;  ///< per-message (per-chunk) latency
  /// Fraction of nominal bandwidth lost to framing/protocol; another mild
  /// non-ideality the linear model does not see.
  double protocol_overhead = 0.03;

  /// Effective bandwidth seen by each of `senders` concurrent senders whose
  /// NICs run at `sender_nic_Bps`.
  double per_sender_bandwidth(int senders, double sender_nic_Bps) const;

  /// Time for one sender (among `senders` concurrent ones) to push
  /// `bytes` bytes split over `messages` messages. The one WAN formula:
  /// the runtime's repository and cache-site pipes and the cache planner
  /// all charge through it (DESIGN.md §4). `messages` is a double so the
  /// planner's mean per-node share passes through unrounded.
  double transfer_time(double bytes, double messages, int senders,
                       double sender_nic_Bps) const;

  /// Throws util::ConfigError on non-finite, negative or zero rates
  /// (per_link_Bps, aggregate_cap_Bps), a non-finite/negative latency, or
  /// a protocol_overhead outside [0, 1) — an overhead of 1 zeroes the
  /// effective bandwidth and every transfer takes forever.
  void validate() const;
};

/// Convenience constructors matching the paper's setups.
WanSpec wan_kbps(double kbps);   ///< e.g. wan_kbps(500), wan_kbps(250)
WanSpec wan_mbps(double mbps);   ///< LAN-class pipe
WanSpec wan_ideal(double mbps);  ///< zero latency/overhead/cap (tests)

}  // namespace fgp::sim
