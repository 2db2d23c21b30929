#include "sim/machine.h"

#include <cmath>

#include "util/check.h"

namespace fgp::sim {

namespace detail {

void require_rate(double v, const char* what) {
  if (!std::isfinite(v) || v <= 0.0)
    throw util::ConfigError(std::string(what) +
                            " must be a finite positive rate, got " +
                            std::to_string(v));
}

void require_nonneg(double v, const char* what) {
  if (!std::isfinite(v) || v < 0.0)
    throw util::ConfigError(std::string(what) +
                            " must be finite and non-negative, got " +
                            std::to_string(v));
}

void require_count(int v, const char* what) {
  if (v < 1)
    throw util::ConfigError(std::string(what) + " must be >= 1, got " +
                            std::to_string(v));
}

}  // namespace detail

void DiskSpec::validate() const {
  detail::require_rate(bandwidth_Bps, "DiskSpec.bandwidth_Bps");
  detail::require_count(disks, "DiskSpec.disks");
  detail::require_nonneg(seek_s, "DiskSpec.seek_s");
  detail::require_nonneg(startup_s, "DiskSpec.startup_s");
}

void NicSpec::validate() const {
  detail::require_rate(bandwidth_Bps, "NicSpec.bandwidth_Bps");
  detail::require_nonneg(latency_s, "NicSpec.latency_s");
}

void MachineSpec::validate() const {
  detail::require_rate(cpu_flops, "MachineSpec.cpu_flops");
  detail::require_rate(mem_Bps, "MachineSpec.mem_Bps");
  detail::require_count(cores, "MachineSpec.cores");
  disk.validate();
  nic.validate();
}

double DiskSpec::access_time(double bytes, double chunks, double bw) const {
  FGP_CHECK(bytes >= 0.0);
  FGP_CHECK_MSG(bw > 0.0, "disk bandwidth must be positive");
  return startup_s + chunks * seek_s + bytes / bw;
}

double MachineSpec::compute_time(const Work& w) const {
  FGP_CHECK_MSG(cpu_flops > 0.0 && mem_Bps > 0.0,
                "machine rates must be positive");
  return w.flops / cpu_flops + w.bytes / mem_Bps;
}

MachineSpec pentium700() {
  MachineSpec m;
  m.name = "pentium700-myrinet";
  m.cpu_flops = 0.7e9;   // 700 MHz, ~1 flop/cycle sustained
  m.mem_Bps = 0.8e9;     // PC100/133-era memory system
  m.disk.bandwidth_Bps = 50e6;
  m.disk.disks = 1;
  m.disk.seek_s = 0.002;
  m.disk.startup_s = 0.01;
  m.nic.bandwidth_Bps = 160e6;  // Myrinet LANai 7.0 (~1.28 Gb/s)
  m.nic.latency_s = 20e-6;
  return m;
}

MachineSpec opteron250() {
  MachineSpec m;
  m.name = "opteron250-infiniband";
  m.cpu_flops = 2.4e9;  // 2.4 GHz per core
  m.cores = 2;          // dual-processor nodes, per the paper
  m.mem_Bps = 3.0e9;
  m.disk.bandwidth_Bps = 100e6;
  m.disk.disks = 1;
  m.disk.seek_s = 0.0015;
  m.disk.startup_s = 0.008;
  m.nic.bandwidth_Bps = 125e6;  // 1 Gb InfiniBand, per the paper
  m.nic.latency_s = 5e-6;
  return m;
}

}  // namespace fgp::sim
