// machine.h — the virtual-cluster substrate's machine model.
//
// The paper ran on two physical clusters (700 MHz Pentium III / Myrinet and
// 2.4 GHz Opteron / InfiniBand). We replace physical time with virtual time
// charged against explicit machine parameters. Application kernels report
// the *actual* work they performed (floating-point operations and bytes
// touched); machines convert work into seconds. Two-dimensional work is
// essential for the heterogeneous-cluster experiments (paper §3.4): apps
// with different flop:byte mixes scale differently across machine types,
// which is exactly why the paper's averaged scaling factor s_c carries
// error (observed per-app factors ranged 0.233–0.370).
#pragma once

#include <string>

namespace fgp::sim {

/// Work actually performed by a kernel: floating-point operations plus
/// bytes moved through the memory system. Addable; scalable.
struct Work {
  double flops = 0.0;
  double bytes = 0.0;

  Work& operator+=(const Work& o) {
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
  friend Work operator+(Work a, const Work& b) { return a += b; }
  friend Work operator*(double k, Work w) {
    return Work{w.flops * k, w.bytes * k};
  }
};

/// Disk subsystem of one node. `seek_s` is charged once per chunk access;
/// `startup_s` once per retrieval phase — these are the non-idealities that
/// keep retrieval from scaling perfectly linearly (the prediction model
/// assumes linearity, so they are a real source of modeled error).
struct DiskSpec {
  double bandwidth_Bps = 50e6;  ///< sustained sequential bandwidth, bytes/s
  int disks = 1;                ///< disks per node (bandwidth multiplies)
  double seek_s = 0.005;        ///< per-chunk positioning cost
  double startup_s = 0.01;      ///< per-phase fixed cost

  double effective_bandwidth() const { return bandwidth_Bps * disks; }
  /// Time for one node to read (or write) `chunks` chunks totalling
  /// `bytes` bytes at `bw` bytes/s: its own effective_bandwidth(), or its
  /// cluster's backplane-capped per_node_retrieval_Bps(). The one disk
  /// formula: every data tier and the cache planner charge through it
  /// (DESIGN.md §4). `chunks` is a double so the planner's mean per-node
  /// share passes through unrounded.
  double access_time(double bytes, double chunks, double bw) const;

  /// Throws util::ConfigError on non-finite, negative or zero rates (and
  /// non-finite/negative fixed costs): a NaN bandwidth poisons every
  /// virtual-time charge downstream, so specs are rejected at the door.
  void validate() const;
};

/// Network interface of one node.
struct NicSpec {
  double bandwidth_Bps = 100e6;  ///< link bandwidth, bytes/s
  double latency_s = 50e-6;      ///< per-message latency

  /// Throws util::ConfigError on non-finite/negative/zero bandwidth or a
  /// non-finite/negative latency.
  void validate() const;
};

/// A machine type. All nodes of a cluster share one spec (homogeneous
/// clusters, as in the paper; heterogeneity is *between* clusters).
struct MachineSpec {
  std::string name = "generic";
  double cpu_flops = 1e9;  ///< floating-point throughput per core, flop/s
  double mem_Bps = 1e9;    ///< memory-system throughput, bytes/s
  int cores = 1;           ///< processors per node (SMP width)
  DiskSpec disk;
  NicSpec nic;

  /// Virtual seconds to execute `w` on one node (roofline-style additive
  /// model: compute time plus memory time).
  double compute_time(const Work& w) const;

  /// Throws util::ConfigError unless every rate is finite and positive,
  /// every fixed cost finite and non-negative, and every count >= 1.
  /// Validates the nested disk and nic specs too.
  void validate() const;
};

namespace detail {
/// Shared numeric-field guards for the spec validators. `what` names the
/// field in the ConfigError message (e.g. "MachineSpec.cpu_flops").
void require_rate(double v, const char* what);     ///< finite and > 0
void require_nonneg(double v, const char* what);   ///< finite and >= 0
void require_count(int v, const char* what);       ///< >= 1
}  // namespace detail

/// Reference machine of the paper's base cluster: 700 MHz Pentium III,
/// Myrinet LANai 7.0.
MachineSpec pentium700();

/// Reference machine of the paper's second cluster: dual 2.4 GHz
/// Opteron 250, Mellanox InfiniBand (1 Gb).
MachineSpec opteron250();

}  // namespace fgp::sim
