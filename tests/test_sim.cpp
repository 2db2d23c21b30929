// Unit and property tests for the virtual-cluster substrate: machine,
// cluster, and WAN models.
#include <gtest/gtest.h>

#include <limits>

#include "sim/cluster.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "util/check.h"

namespace fgp::sim {
namespace {

// ---------------------------------------------------------------- machine

TEST(Work, AdditionAndScaling) {
  Work a{10.0, 20.0};
  Work b{1.0, 2.0};
  const Work c = a + b;
  EXPECT_DOUBLE_EQ(c.flops, 11.0);
  EXPECT_DOUBLE_EQ(c.bytes, 22.0);
  const Work d = 2.0 * b;
  EXPECT_DOUBLE_EQ(d.flops, 2.0);
  EXPECT_DOUBLE_EQ(d.bytes, 4.0);
}

TEST(Machine, ComputeTimeIsRooflineAdditive) {
  MachineSpec m;
  m.cpu_flops = 1e9;
  m.mem_Bps = 2e9;
  const double t = m.compute_time({3e9, 4e9});
  EXPECT_DOUBLE_EQ(t, 3.0 + 2.0);
}

TEST(Machine, ComputeTimeZeroWorkIsZero) {
  MachineSpec m;
  EXPECT_DOUBLE_EQ(m.compute_time({}), 0.0);
}

TEST(Machine, InvalidRatesThrow) {
  MachineSpec m;
  m.cpu_flops = 0.0;
  EXPECT_THROW(m.compute_time({1, 1}), util::Error);
}

TEST(Disk, AccessTimeBreakdown) {
  DiskSpec d;
  d.bandwidth_Bps = 100e6;
  d.disks = 2;
  d.seek_s = 0.001;
  d.startup_s = 0.01;
  // 200 MB over 10 chunks on 2 disks: 0.01 + 10*0.001 + 200e6/200e6.
  EXPECT_NEAR(d.access_time(200e6, 10, d.effective_bandwidth()),
              0.01 + 0.01 + 1.0, 1e-12);
}

TEST(Disk, MultipleDisksScaleBandwidth) {
  DiskSpec d;
  d.bandwidth_Bps = 50e6;
  d.disks = 4;
  EXPECT_DOUBLE_EQ(d.effective_bandwidth(), 200e6);
}

TEST(Disk, NegativeBytesThrow) {
  DiskSpec d;
  EXPECT_THROW(d.access_time(-1.0, 0, d.effective_bandwidth()), util::Error);
}

TEST(Machine, ReferenceMachinesAreOrdered) {
  // The Opteron cluster must beat the Pentium cluster on every axis the
  // paper's scaling factors capture.
  const MachineSpec p = pentium700();
  const MachineSpec o = opteron250();
  EXPECT_GT(o.cpu_flops, p.cpu_flops);
  EXPECT_GT(o.mem_Bps, p.mem_Bps);
  EXPECT_LT(o.nic.latency_s, p.nic.latency_s);
}

// ---------------------------------------------------------------- cluster

TEST(Cluster, PerNodeRetrievalCappedByBackplane) {
  ClusterSpec c = cluster_pentium_myrinet();
  const double one = c.per_node_retrieval_Bps(1);
  EXPECT_DOUBLE_EQ(one, c.machine.disk.effective_bandwidth());
  // With many nodes the backplane share binds.
  const double eight = c.per_node_retrieval_Bps(8);
  EXPECT_DOUBLE_EQ(eight, c.storage_backplane_Bps / 8.0);
  EXPECT_LT(eight, one);
}

TEST(Cluster, AggregateRetrievalThroughputMonotone) {
  ClusterSpec c = cluster_pentium_myrinet();
  double prev = 0.0;
  for (int n = 1; n <= 16; n *= 2) {
    const double agg = n * c.per_node_retrieval_Bps(n);
    EXPECT_GE(agg, prev - 1e-9);
    prev = agg;
  }
  // ... but saturates at the backplane.
  EXPECT_LE(prev, c.storage_backplane_Bps + 1e-9);
}

TEST(Cluster, ZeroNodesThrow) {
  ClusterSpec c = cluster_ideal();
  EXPECT_THROW(c.per_node_retrieval_Bps(0), util::Error);
}

TEST(Cluster, IdealClusterIsIdeal) {
  EXPECT_TRUE(cluster_ideal().is_ideal());
  EXPECT_FALSE(cluster_pentium_myrinet().is_ideal());
  EXPECT_FALSE(cluster_opteron_infiniband().is_ideal());
}

TEST(Cluster, InterconnectMessageTimeLinearInSize) {
  InterconnectSpec ic;
  ic.bandwidth_Bps = 100e6;
  ic.latency_s = 1e-4;
  const double t1 = ic.message_time(1e6);
  const double t2 = ic.message_time(2e6);
  EXPECT_NEAR(t2 - t1, 1e6 / 100e6, 1e-12);
  EXPECT_NEAR(ic.message_time(0.0), 1e-4, 1e-15);
}

// -------------------------------------------------------------------- wan

TEST(Wan, PerSenderBandwidthRespectsAllCaps) {
  WanSpec w;
  w.per_link_Bps = 10e6;
  w.aggregate_cap_Bps = 40e6;
  w.protocol_overhead = 0.0;
  // 2 senders: per-link binds (40/2 = 20 > 10).
  EXPECT_DOUBLE_EQ(w.per_sender_bandwidth(2, 1e9), 10e6);
  // 8 senders: aggregate binds (40/8 = 5 < 10).
  EXPECT_DOUBLE_EQ(w.per_sender_bandwidth(8, 1e9), 5e6);
  // Slow NIC binds everything.
  EXPECT_DOUBLE_EQ(w.per_sender_bandwidth(2, 1e6), 1e6);
}

TEST(Wan, ProtocolOverheadShavesBandwidth) {
  WanSpec w;
  w.per_link_Bps = 100e6;
  w.aggregate_cap_Bps = 1e18;
  w.protocol_overhead = 0.10;
  EXPECT_DOUBLE_EQ(w.per_sender_bandwidth(1, 1e9), 90e6);
}

TEST(Wan, TransferTimeIncludesPerMessageLatency) {
  WanSpec w;
  w.per_link_Bps = 10e6;
  w.aggregate_cap_Bps = 1e18;
  w.latency_s = 0.002;
  w.protocol_overhead = 0.0;
  const double t = w.transfer_time(10e6, 5, 1, 1e9);
  EXPECT_NEAR(t, 5 * 0.002 + 1.0, 1e-12);
}

TEST(Wan, TransferTimeMonotoneInSenders) {
  WanSpec w = wan_mbps(100.0);
  const double few = w.transfer_time(1e6, 1, 2, 1e9);
  const double many = w.transfer_time(1e6, 1, 32, 1e9);
  EXPECT_LE(few, many);  // more contention can never speed one sender up
}

TEST(Wan, KbpsConstructorMatchesPaperUnits) {
  const WanSpec w = wan_kbps(500.0);
  EXPECT_DOUBLE_EQ(w.per_link_Bps, 500.0 * 1000.0 / 8.0);
  const WanSpec half = wan_kbps(250.0);
  EXPECT_DOUBLE_EQ(half.per_link_Bps, w.per_link_Bps / 2.0);
}

TEST(Wan, IdealWanHasNoFriction) {
  const WanSpec w = wan_ideal(100.0);
  EXPECT_DOUBLE_EQ(w.latency_s, 0.0);
  EXPECT_DOUBLE_EQ(w.protocol_overhead, 0.0);
  // Halving data halves time exactly.
  const double t1 = w.transfer_time(2e6, 4, 1, 1e18);
  const double t2 = w.transfer_time(1e6, 2, 1, 1e18);
  EXPECT_NEAR(t1, 2.0 * t2, 1e-12);
}

TEST(Wan, ZeroSendersThrow) {
  WanSpec w;
  EXPECT_THROW(w.per_sender_bandwidth(0, 1e9), util::Error);
}

// ----------------------------------------------- parameterized properties

class WanScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(WanScalingTest, PerSenderShareNeverExceedsLink) {
  const int senders = GetParam();
  WanSpec w = wan_mbps(64.0);
  EXPECT_LE(w.per_sender_bandwidth(senders, 1e9), w.per_link_Bps);
}

TEST_P(WanScalingTest, AggregateThroughputNeverExceedsCap) {
  const int senders = GetParam();
  WanSpec w = wan_mbps(64.0);
  const double agg = senders * w.per_sender_bandwidth(senders, 1e9);
  EXPECT_LE(agg, w.aggregate_cap_Bps + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(SenderCounts, WanScalingTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

class DiskChunksTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskChunksTest, TimeMonotoneInChunkCount) {
  DiskSpec d;
  const auto chunks = static_cast<double>(GetParam());
  const double base = d.access_time(1e8, chunks, d.effective_bandwidth());
  const double more = d.access_time(1e8, chunks + 1, d.effective_bandwidth());
  EXPECT_GT(more, base);
}

INSTANTIATE_TEST_SUITE_P(ChunkCounts, DiskChunksTest,
                         ::testing::Values(0u, 1u, 10u, 1000u));

// --------------------------------------------------------- spec validation

TEST(SpecValidation, ReferenceSpecsAreValid) {
  EXPECT_NO_THROW(pentium700().validate());
  EXPECT_NO_THROW(opteron250().validate());
  EXPECT_NO_THROW(cluster_pentium_myrinet().validate());
  EXPECT_NO_THROW(cluster_opteron_infiniband().validate());
  EXPECT_NO_THROW(cluster_ideal().validate());
  EXPECT_NO_THROW(wan_kbps(500).validate());
  EXPECT_NO_THROW(wan_mbps(10).validate());
  EXPECT_NO_THROW(wan_ideal(100).validate());
}

TEST(SpecValidation, MachineRejectsBadRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf, -inf}) {
    MachineSpec m = pentium700();
    m.cpu_flops = bad;
    EXPECT_THROW(m.validate(), util::ConfigError) << "cpu_flops=" << bad;
    m = pentium700();
    m.mem_Bps = bad;
    EXPECT_THROW(m.validate(), util::ConfigError) << "mem_Bps=" << bad;
    m = pentium700();
    m.disk.bandwidth_Bps = bad;
    EXPECT_THROW(m.validate(), util::ConfigError) << "disk bw=" << bad;
    m = pentium700();
    m.nic.bandwidth_Bps = bad;
    EXPECT_THROW(m.validate(), util::ConfigError) << "nic bw=" << bad;
  }
}

TEST(SpecValidation, MachineRejectsNegativeLatencies) {
  MachineSpec m = pentium700();
  m.disk.seek_s = -1e-3;
  EXPECT_THROW(m.validate(), util::ConfigError);
  m = pentium700();
  m.nic.latency_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.validate(), util::ConfigError);
}

TEST(SpecValidation, MachineRejectsBadCounts) {
  MachineSpec m = pentium700();
  m.cores = 0;
  EXPECT_THROW(m.validate(), util::ConfigError);
  m = pentium700();
  m.disk.disks = -1;
  EXPECT_THROW(m.validate(), util::ConfigError);
}

TEST(SpecValidation, WanRejectsOverheadOutsideUnitInterval) {
  WanSpec w = wan_mbps(10);
  w.protocol_overhead = 1.0;
  EXPECT_THROW(w.validate(), util::ConfigError);
  w = wan_mbps(10);
  w.protocol_overhead = -0.1;
  EXPECT_THROW(w.validate(), util::ConfigError);
  w = wan_mbps(10);
  w.protocol_overhead = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.validate(), util::ConfigError);
}

TEST(SpecValidation, ClusterRejectsBadBackplaneAndNodeCount) {
  ClusterSpec c = cluster_pentium_myrinet();
  c.storage_backplane_Bps = 0.0;
  EXPECT_THROW(c.validate(), util::ConfigError);
  c = cluster_pentium_myrinet();
  c.max_nodes = 0;
  EXPECT_THROW(c.validate(), util::ConfigError);
  c = cluster_pentium_myrinet();
  c.interconnect.bandwidth_Bps = -5.0;
  EXPECT_THROW(c.validate(), util::ConfigError);
}

}  // namespace
}  // namespace fgp::sim
