// Tests for the ADR-like chunked repository: chunks, datasets, partition
// maps, and on-disk persistence (including corruption handling).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "repository/chunk.h"
#include "repository/dataset.h"
#include "repository/partition.h"
#include "repository/payload.h"
#include "repository/store.h"
#include "util/thread_pool.h"

namespace fgp::repository {
namespace {

std::filesystem::path temp_root() {
  auto p = std::filesystem::temp_directory_path() /
           ("fgp_store_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  return p;
}

/// Byte equality of two payload views (std::span has no operator==).
bool same_payload(const Chunk& a, const Chunk& b) {
  const auto pa = a.payload();
  const auto pb = b.payload();
  return pa.size() == pb.size() && std::equal(pa.begin(), pa.end(), pb.begin());
}

// ------------------------------------------------------------------ chunk

TEST(Chunk, BuildsFromTypedElements) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const Chunk c = make_chunk(7, xs, 2.0);
  EXPECT_EQ(c.id(), 7u);
  EXPECT_EQ(c.real_bytes(), 24u);
  EXPECT_DOUBLE_EQ(c.virtual_bytes(), 48.0);
  EXPECT_DOUBLE_EQ(c.virtual_scale(), 2.0);
  const auto view = c.as_span<double>();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[1], 2.0);
}

TEST(Chunk, ChecksumVerifies) {
  const Chunk c = make_chunk<std::uint32_t>(0, {1, 2, 3});
  EXPECT_TRUE(c.verify());
}

TEST(Chunk, SerializationRoundTrip) {
  const Chunk c = make_chunk<double>(3, {4.5, -1.0}, 100.0);
  util::ByteWriter w;
  c.serialize(w);
  util::ByteReader r(w.bytes());
  const Chunk back = Chunk::deserialize(r);
  EXPECT_EQ(back.id(), 3u);
  EXPECT_DOUBLE_EQ(back.virtual_scale(), 100.0);
  EXPECT_TRUE(same_payload(back, c));
  EXPECT_TRUE(back.verify());
}

TEST(Chunk, CorruptedPayloadFailsDeserialize) {
  const Chunk c = make_chunk<double>(1, {1.0, 2.0});
  util::ByteWriter w;
  c.serialize(w);
  auto bytes = w.take();
  bytes.back() ^= 0xFF;  // flip payload bits
  util::ByteReader r(bytes);
  EXPECT_THROW(Chunk::deserialize(r), util::SerializationError);
}

TEST(Chunk, RaggedSpanThrows) {
  const Chunk c = make_chunk<std::uint8_t>(0, {1, 2, 3, 4, 5});
  EXPECT_THROW(c.as_span<double>(), util::Error);
}

TEST(Chunk, NonPositiveScaleThrows) {
  EXPECT_THROW(Chunk(0, std::vector<std::uint8_t>{}, 0.0), util::Error);
  EXPECT_THROW(Chunk(0, std::vector<std::uint8_t>{}, -1.0), util::Error);
}

TEST(Chunk, CopiesShareThePayloadSlab) {
  const Chunk c = make_chunk<double>(4, {1, 2, 3}, 1.0);
  const Chunk copy = c;
  // Handles, not bytes: a copy aliases the same immutable slab.
  EXPECT_EQ(copy.payload().data(), c.payload().data());
  EXPECT_EQ(copy.payload_buffer().get(), c.payload_buffer().get());
  EXPECT_EQ(copy.checksum(), c.checksum());
  EXPECT_TRUE(copy.verify());
}

TEST(Chunk, SetVirtualScaleRecomputesVirtualBytes) {
  Chunk c = make_chunk<double>(0, {1, 2, 3}, 1.0);
  c.set_virtual_scale(4.0);
  EXPECT_DOUBLE_EQ(c.virtual_scale(), 4.0);
  EXPECT_DOUBLE_EQ(c.virtual_bytes(), 96.0);
  EXPECT_THROW(c.set_virtual_scale(0.0), util::Error);
}

TEST(Chunk, StreamRoundTripMatchesSerialize) {
  const Chunk c = make_chunk<double>(9, {2.5, -3.0, 7.0}, 5.0);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  c.write_to(ss);
  const std::string wire = ss.str();
  const Chunk back = Chunk::read_from(ss, wire.size());
  EXPECT_EQ(back.id(), 9u);
  EXPECT_DOUBLE_EQ(back.virtual_scale(), 5.0);
  EXPECT_TRUE(same_payload(back, c));
  EXPECT_TRUE(back.verify());

  // The streamed wire format is the same one ByteWriter serialization
  // produces, so stores written either way stay interchangeable.
  util::ByteWriter w;
  c.serialize(w);
  EXPECT_EQ(wire, std::string(w.bytes().begin(), w.bytes().end()));
}

TEST(Chunk, ReadFromRejectsOversizedLengthPrefix) {
  const Chunk c = make_chunk<double>(1, {1.0, 2.0});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  c.write_to(ss);
  // A hostile length prefix larger than the file itself must be rejected
  // before any allocation the size of the claimed payload.
  EXPECT_THROW(Chunk::read_from(ss, 4), util::SerializationError);
}

TEST(Chunk, ReadFromAcceptsZeroLengthPayloadWithTrailingGarbage) {
  const Chunk c(5, std::vector<std::uint8_t>{}, 2.0);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  c.write_to(ss);
  ss << "trailing-garbage-after-the-empty-payload";
  const Chunk back = Chunk::read_from(ss, 64);
  EXPECT_EQ(back.id(), 5u);
  EXPECT_EQ(back.real_bytes(), 0u);
  EXPECT_TRUE(back.verify());
  EXPECT_EQ(back.checksum(), c.checksum());
}

TEST(Chunk, ReadFromRejectsLengthPrefixEqualToLimit) {
  // payload_limit is the file size, which includes the 32-byte wire
  // header, so a prefix claiming payload_limit payload bytes cannot be
  // satisfied: the stream must throw a typed error, never read past the
  // file or under-fill the buffer.
  const Chunk c = make_chunk<double>(2, {1.0, 2.0, 3.0});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  c.write_to(ss);
  const std::uint64_t file_size = ss.str().size();
  // Rewrite the length prefix (bytes 24..31) to exactly file_size.
  ss.seekp(24);
  ss.write(reinterpret_cast<const char*>(&file_size), sizeof(file_size));
  ss.seekg(0);
  EXPECT_THROW(Chunk::read_from(ss, file_size), util::SerializationError);
}

// ---------------------------------------------------------------- dataset

TEST(Dataset, AccumulatesTotals) {
  ChunkedDataset ds(DatasetMeta{"d", "f64", 0});
  ds.add_chunk(make_chunk<double>(0, {1, 2, 3, 4}, 10.0));
  ds.add_chunk(make_chunk<double>(1, {5, 6}, 10.0));
  EXPECT_EQ(ds.chunk_count(), 2u);
  EXPECT_EQ(ds.total_real_bytes(), 48u);
  EXPECT_DOUBLE_EQ(ds.total_virtual_bytes(), 480.0);
  EXPECT_TRUE(ds.verify_all());
}

TEST(Dataset, SetUniformVirtualScaleMatchesRebuild) {
  // Rescaling in place (the probe-pattern fast path in bench/common.cpp)
  // must agree with constructing the chunks at the new scale outright.
  ChunkedDataset ds(DatasetMeta{"d", "f64", 0});
  ds.add_chunk(make_chunk<double>(0, {1, 2, 3, 4}, 1.0));
  ds.add_chunk(make_chunk<double>(1, {5, 6}, 1.0));
  ds.set_uniform_virtual_scale(10.0);
  EXPECT_DOUBLE_EQ(ds.total_virtual_bytes(), 480.0);
  EXPECT_DOUBLE_EQ(ds.chunk(0).virtual_scale(), 10.0);
  EXPECT_DOUBLE_EQ(ds.chunk(1).virtual_bytes(), 160.0);
  EXPECT_TRUE(ds.verify_all());
}

TEST(Dataset, MetaRoundTrips) {
  ChunkedDataset ds(DatasetMeta{"name", "schema", 42});
  EXPECT_EQ(ds.meta().name, "name");
  EXPECT_EQ(ds.meta().seed, 42u);
}

// -------------------------------------------------------------- partition

TEST(Partition, BlockCoversAllChunksOnce) {
  const auto pm = PartitionMap::block(17, 4);
  EXPECT_TRUE(pm.covers_all());
  EXPECT_EQ(pm.parts(), 4);
  EXPECT_EQ(pm.chunk_count(), 17u);
}

TEST(Partition, BlockIsContiguous) {
  const auto pm = PartitionMap::block(10, 2);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(pm.owner_of(i), 0);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ(pm.owner_of(i), 1);
}

TEST(Partition, BlockBalancedWithinOne) {
  const auto pm = PartitionMap::block(17, 4);
  EXPECT_LE(pm.imbalance(), 1u);
}

TEST(Partition, RoundRobinInterleaves) {
  const auto pm = PartitionMap::round_robin(8, 3);
  EXPECT_EQ(pm.owner_of(0), 0);
  EXPECT_EQ(pm.owner_of(1), 1);
  EXPECT_EQ(pm.owner_of(2), 2);
  EXPECT_EQ(pm.owner_of(3), 0);
  EXPECT_TRUE(pm.covers_all());
}

TEST(Partition, MorePartsThanChunksLeavesSomeEmpty) {
  const auto pm = PartitionMap::block(3, 8);
  EXPECT_TRUE(pm.covers_all());
  int empty = 0;
  for (int p = 0; p < pm.parts(); ++p) empty += pm.chunks_of(p).empty();
  EXPECT_EQ(empty, 5);
}

TEST(Partition, ZeroPartsThrow) {
  EXPECT_THROW(PartitionMap::block(4, 0), util::Error);
  EXPECT_THROW(PartitionMap::round_robin(4, -1), util::Error);
}

TEST(Partition, OutOfRangeLookupsThrow) {
  const auto pm = PartitionMap::block(4, 2);
  EXPECT_THROW(pm.owner_of(4), util::Error);
  EXPECT_THROW(pm.chunks_of(2), util::Error);
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PartitionPropertyTest, BothPoliciesCoverAllAndBalance) {
  const auto [chunks, parts] = GetParam();
  for (const auto& pm : {PartitionMap::block(chunks, parts),
                         PartitionMap::round_robin(chunks, parts)}) {
    EXPECT_TRUE(pm.covers_all());
    EXPECT_LE(pm.imbalance(), 1u);
    std::size_t total = 0;
    for (int p = 0; p < pm.parts(); ++p) total += pm.chunks_of(p).size();
    EXPECT_EQ(total, chunks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 7, 16, 64, 100),
                       ::testing::Values(1, 2, 3, 8, 16)));

// ------------------------------------------------------------------ store

TEST(Store, SaveLoadRoundTrip) {
  DatasetStore store(temp_root());
  ChunkedDataset ds(DatasetMeta{"roundtrip", "f64", 7});
  ds.add_chunk(make_chunk<double>(0, {1, 2, 3}, 5.0));
  ds.add_chunk(make_chunk<double>(1, {4, 5}, 5.0));
  store.save(ds);
  EXPECT_TRUE(store.exists("roundtrip"));

  const ChunkedDataset back = store.load("roundtrip");
  EXPECT_EQ(back.meta().name, "roundtrip");
  EXPECT_EQ(back.meta().seed, 7u);
  EXPECT_EQ(back.chunk_count(), 2u);
  EXPECT_DOUBLE_EQ(back.total_virtual_bytes(), ds.total_virtual_bytes());
  EXPECT_TRUE(same_payload(back.chunk(1), ds.chunk(1)));
  store.remove("roundtrip");
  std::filesystem::remove_all(store.root());
}

TEST(Store, ParallelSaveLoadMatchesSerial) {
  // A pooled save followed by serial and pooled loads must reproduce the
  // dataset exactly: each chunk file's name is fixed by index and each
  // loaded chunk lands at its manifest index, so pool size never shows.
  util::ThreadPool pool(4);
  DatasetStore store(temp_root());
  ChunkedDataset ds(DatasetMeta{"par", "f64", 11});
  for (std::size_t i = 0; i < 17; ++i) {
    std::vector<double> xs(32);
    for (std::size_t j = 0; j < xs.size(); ++j)
      xs[j] = static_cast<double>(i) * 100.0 + static_cast<double>(j);
    ds.add_chunk(make_chunk(i, xs, 3.0));
  }
  store.save(ds, &pool);

  const ChunkedDataset serial_load = store.load("par");
  const ChunkedDataset pooled_load = store.load("par", &pool);
  ASSERT_EQ(serial_load.chunk_count(), ds.chunk_count());
  ASSERT_EQ(pooled_load.chunk_count(), ds.chunk_count());
  EXPECT_DOUBLE_EQ(pooled_load.total_virtual_bytes(),
                   ds.total_virtual_bytes());
  for (std::size_t i = 0; i < ds.chunk_count(); ++i) {
    EXPECT_TRUE(same_payload(serial_load.chunk(i), ds.chunk(i)));
    EXPECT_EQ(pooled_load.chunk(i).id(), ds.chunk(i).id());
    EXPECT_TRUE(same_payload(pooled_load.chunk(i), ds.chunk(i)));
    EXPECT_DOUBLE_EQ(pooled_load.chunk(i).virtual_scale(), 3.0);
  }
  std::filesystem::remove_all(store.root());
}

TEST(Store, MissingDatasetThrows) {
  DatasetStore store(temp_root());
  EXPECT_FALSE(store.exists("nope"));
  EXPECT_THROW(store.load("nope"), util::SerializationError);
  std::filesystem::remove_all(store.root());
}

TEST(Store, CorruptedChunkFileDetected) {
  DatasetStore store(temp_root());
  ChunkedDataset ds(DatasetMeta{"corrupt", "f64", 0});
  ds.add_chunk(make_chunk<double>(0, {9, 8, 7}));
  store.save(ds);

  // Flip a byte in the stored payload.
  const auto path = store.root() / "corrupt" / "chunk_0.bin";
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  char last;
  f.seekg(-1, std::ios::end);
  f.get(last);
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(last ^ 0x1));
  f.close();

  EXPECT_THROW(store.load("corrupt"), util::SerializationError);
  std::filesystem::remove_all(store.root());
}

TEST(Store, RejectsPathTraversalNames) {
  DatasetStore store(temp_root());
  EXPECT_THROW(store.load("../etc"), util::Error);
  std::filesystem::remove_all(store.root());
}

TEST(Store, ExistsFalseForManifestlessDirectoryAndMissingName) {
  DatasetStore store(temp_root());
  EXPECT_FALSE(store.exists("never-saved"));
  // A bare directory without a manifest is not a dataset.
  std::filesystem::create_directories(store.root() / "bare");
  EXPECT_FALSE(store.exists("bare"));
  std::filesystem::remove_all(store.root());
}

TEST(Store, MissingChunkFileThrowsWhileManifestExists) {
  DatasetStore store(temp_root());
  ChunkedDataset ds(DatasetMeta{"holey", "f64", 0});
  ds.add_chunk(make_chunk<double>(0, {1}));
  ds.add_chunk(make_chunk<double>(1, {2}));
  store.save(ds);
  std::filesystem::remove(store.root() / "holey" / "chunk_1.bin");
  EXPECT_TRUE(store.exists("holey"));  // manifest still present
  EXPECT_THROW(store.load("holey"), util::SerializationError);
  std::filesystem::remove_all(store.root());
}

TEST(Store, RemoveOfNeverSavedNameIsNoOp) {
  DatasetStore store(temp_root());
  store.remove("ghost");  // must not throw
  EXPECT_FALSE(store.exists("ghost"));
  std::filesystem::remove_all(store.root());
}

TEST(Store, OverwriteReplacesOldChunks) {
  DatasetStore store(temp_root());
  ChunkedDataset big(DatasetMeta{"ow", "f64", 0});
  big.add_chunk(make_chunk<double>(0, {1}));
  big.add_chunk(make_chunk<double>(1, {2}));
  store.save(big);
  ChunkedDataset small(DatasetMeta{"ow", "f64", 0});
  small.add_chunk(make_chunk<double>(0, {3}));
  store.save(small);
  const auto back = store.load("ow");
  EXPECT_EQ(back.chunk_count(), 1u);
  EXPECT_DOUBLE_EQ(back.chunk(0).as_span<double>()[0], 3.0);
  std::filesystem::remove_all(store.root());
}

}  // namespace
}  // namespace fgp::repository
