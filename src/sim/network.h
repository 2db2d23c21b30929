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

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

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
  /// `bytes` bytes split over `messages` messages.
  double transfer_time(double bytes, std::uint64_t messages, int senders,
                       double sender_nic_Bps) const;

  /// Throws util::ConfigError on non-finite, negative or zero rates
  /// (per_link_Bps, aggregate_cap_Bps), a non-finite/negative latency, or
  /// a protocol_overhead outside [0, 1) — an overhead of 1 zeroes the
  /// effective bandwidth and every transfer takes forever.
  void validate() const;
};

/// WanSpec::transfer_time plus metric accounting for one logical WAN pipe
/// (`pipe` names the link, e.g. "repo-compute" or "cache-compute"). Each
/// transfer bumps the deterministic counters
///   wan.<pipe>.bytes / wan.<pipe>.messages / wan.<pipe>.transfers
/// Byte/message counts are integral, so the totals are exact in any order.
/// The counter handles resolve on the first transfer(), so a pipe that
/// never moves a byte never creates its metrics, and afterwards every call
/// is a lock plus one accumulation per counter — no name building or map
/// walk per node per phase. Not safe to share one meter across threads
/// (the runtime meters from its master thread only).
class WanMeter {
 public:
  /// A disconnected meter: transfer() is exactly WanSpec::transfer_time.
  WanMeter() = default;

  /// Meters wan.<pipe>.{bytes,messages,transfers} on `metrics`.
  /// Null-registry safe (yields a disconnected meter).
  WanMeter(obs::Registry* metrics, std::string_view pipe);

  /// WanSpec::transfer_time plus the three counter bumps.
  double transfer(const WanSpec& wan, double bytes, std::uint64_t messages,
                  int senders, double sender_nic_Bps) const;

 private:
  obs::Registry* registry_ = nullptr;
  std::string base_;
  mutable obs::Registry::Counter bytes_;
  mutable obs::Registry::Counter messages_;
  mutable obs::Registry::Counter transfers_;
  mutable bool resolved_ = false;
};

/// Convenience constructors matching the paper's setups.
WanSpec wan_kbps(double kbps);   ///< e.g. wan_kbps(500), wan_kbps(250)
WanSpec wan_mbps(double mbps);   ///< LAN-class pipe
WanSpec wan_ideal(double mbps);  ///< zero latency/overhead/cap (tests)

}  // namespace fgp::sim
