#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/machine.h"
#include "util/check.h"

namespace fgp::sim {

void WanSpec::validate() const {
  detail::require_rate(per_link_Bps, "WanSpec.per_link_Bps");
  detail::require_rate(aggregate_cap_Bps, "WanSpec.aggregate_cap_Bps");
  detail::require_nonneg(latency_s, "WanSpec.latency_s");
  if (!std::isfinite(protocol_overhead) || protocol_overhead < 0.0 ||
      protocol_overhead >= 1.0)
    throw util::ConfigError(
        "WanSpec.protocol_overhead must be in [0, 1), got " +
        std::to_string(protocol_overhead));
}

double WanSpec::per_sender_bandwidth(int senders, double sender_nic_Bps) const {
  FGP_CHECK_MSG(senders > 0, "need at least one sender");
  FGP_CHECK(per_link_Bps > 0.0 && sender_nic_Bps > 0.0);
  const double fair_share = aggregate_cap_Bps / static_cast<double>(senders);
  const double raw = std::min({per_link_Bps, fair_share, sender_nic_Bps});
  return raw * (1.0 - protocol_overhead);
}

double WanSpec::transfer_time(double bytes, double messages, int senders,
                              double sender_nic_Bps) const {
  FGP_CHECK(bytes >= 0.0);
  const double bw = per_sender_bandwidth(senders, sender_nic_Bps);
  return messages * latency_s + bytes / bw;
}

WanSpec wan_kbps(double kbps) {
  WanSpec w;
  w.per_link_Bps = kbps * 1000.0 / 8.0;
  w.aggregate_cap_Bps = w.per_link_Bps * 12.0;  // shared backbone
  w.latency_s = 5e-3;                           // wide-area scale
  w.protocol_overhead = 0.03;
  return w;
}

WanSpec wan_mbps(double mbps) {
  WanSpec w;
  w.per_link_Bps = mbps * 1e6 / 8.0;
  w.aggregate_cap_Bps = w.per_link_Bps * 12.0;
  w.latency_s = 1e-3;
  w.protocol_overhead = 0.03;
  return w;
}

WanSpec wan_ideal(double mbps) {
  WanSpec w;
  w.per_link_Bps = mbps * 1e6 / 8.0;
  w.aggregate_cap_Bps = 1e18;
  w.latency_s = 0.0;
  w.protocol_overhead = 0.0;
  return w;
}

}  // namespace fgp::sim
