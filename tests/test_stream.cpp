// Tests for the out-of-core streaming window layer (DESIGN.md §15):
// windowed mmap round trips, the stitched fallback for payloads larger
// than a window, budget-bounded recycling, typed failures on truncated or
// corrupted chunk files, the lazy materialization contract of streamed
// datasets, and the runtime's one verified fetch per chunk per pass.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "freeride/runtime.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "repository/chunk.h"
#include "repository/dataset.h"
#include "repository/payload.h"
#include "repository/store.h"
#include "repository/stream.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fgp::repository {
namespace {

namespace fs = std::filesystem;

fs::path temp_root(const char* tag) {
  auto p = fs::temp_directory_path() /
           ("fgp_stream_test_" + std::string(tag) + "_" +
            std::to_string(::getpid()));
  fs::remove_all(p);
  return p;
}

/// A dataset of byte chunks with a deterministic per-chunk pattern, so any
/// stitching or aliasing mistake shows up as a byte mismatch.
ChunkedDataset make_dataset(const std::vector<std::size_t>& sizes,
                            double scale = 2.0) {
  DatasetMeta meta;
  meta.name = "streamed";
  meta.schema = "bytes";
  meta.seed = 1;
  ChunkedDataset ds(meta);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::uint8_t> bytes(sizes[i]);
    for (std::size_t j = 0; j < bytes.size(); ++j)
      bytes[j] = static_cast<std::uint8_t>((j * 31 + i * 7 + 3) & 0xff);
    ds.add_chunk(Chunk(static_cast<ChunkId>(i), std::move(bytes), scale));
  }
  return ds;
}

bool same_payload(const Chunk& a, const Chunk& b) {
  const auto pa = a.payload();
  const auto pb = b.payload();
  return pa.size() == pb.size() && std::equal(pa.begin(), pa.end(), pb.begin());
}

/// One small (page-sized) window per config, so multi-KB chunks straddle.
StreamConfig tiny_windows(std::size_t budget_windows = 4) {
  StreamConfig cfg;
  cfg.window_bytes = 1;  // rounds up to one page
  cfg.budget_bytes = budget_windows * 4096;
  return cfg;
}

/// Flips one payload byte of a saved chunk file in place (size unchanged,
/// so only the checksum can catch it).
void flip_payload_byte(const fs::path& chunk_file, std::size_t offset) {
  std::fstream f(chunk_file, std::ios::in | std::ios::out | std::ios::binary);
  const auto at =
      static_cast<std::streamoff>(Chunk::kWireHeaderBytes + offset);
  f.seekg(at);
  const int byte = f.get();
  f.seekp(at);
  f.put(static_cast<char>(byte ^ 0x40));
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PayloadBuffer::mmap_supported())
      GTEST_SKIP() << "no mmap on this platform; load_streamed falls back";
  }
};

TEST_F(StreamTest, RoundTripMatchesEagerLoad) {
  const auto root = temp_root("roundtrip");
  const DatasetStore store(root);
  // Sizes chosen to cover: empty, sub-window, exactly one page, straddling
  // 2 and 4 windows, and a non-aligned tail.
  const auto ds = make_dataset({0, 100, 4096, 5000, 12345, 16384});
  store.save(ds);

  const auto eager = store.load("streamed");
  const auto streamed = store.load_streamed("streamed", tiny_windows());
  ASSERT_TRUE(streamed.streamed());
  ASSERT_EQ(streamed.chunk_count(), eager.chunk_count());
  EXPECT_EQ(streamed.total_real_bytes(), eager.total_real_bytes());
  for (std::size_t i = 0; i < streamed.chunk_count(); ++i) {
    const Chunk c = streamed.materialize(i);
    EXPECT_TRUE(same_payload(c, eager.chunk(i))) << "chunk " << i;
    EXPECT_EQ(c.id(), eager.chunk(i).id());
    EXPECT_EQ(c.checksum(), eager.chunk(i).checksum());
    EXPECT_DOUBLE_EQ(c.virtual_scale(), eager.chunk(i).virtual_scale());
  }
  fs::remove_all(root);
}

TEST_F(StreamTest, ResidentChunksStayMetadataOnly) {
  const auto root = temp_root("metadata");
  const DatasetStore store(root);
  store.save(make_dataset({100, 5000}));

  const auto streamed = store.load_streamed("streamed", tiny_windows());
  // The resident handles carry sizes but no bytes, before AND after a
  // materialize — a materialized chunk is a value handed to the caller,
  // never cached back into the dataset.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < streamed.chunk_count(); ++i) {
      EXPECT_FALSE(streamed.chunk(i).loaded());
      EXPECT_GT(streamed.chunk(i).real_bytes(), 0u);
      EXPECT_THROW(streamed.chunk(i).payload(), util::Error);
    }
    for (std::size_t i = 0; i < streamed.chunk_count(); ++i)
      EXPECT_TRUE(streamed.materialize(i).loaded());
  }
  fs::remove_all(root);
}

TEST_F(StreamTest, SingleWindowChunkAliasesTheMapping) {
  const auto root = temp_root("alias");
  const DatasetStore store(root);
  store.save(make_dataset({1000}));

  obs::Registry metrics;
  const DatasetStore reader(root, nullptr, &metrics);
  const auto streamed = reader.load_streamed("streamed", tiny_windows());
  const Chunk c = streamed.materialize(0);
  ASSERT_NE(c.payload_buffer(), nullptr);
  EXPECT_TRUE(c.payload_buffer()->borrowed());  // zero-copy mmap view
  EXPECT_EQ(metrics.value("store.stitched_chunks"), 0.0);
  EXPECT_EQ(metrics.value("store.windowed_bytes"), 1000.0);
  fs::remove_all(root);
}

TEST_F(StreamTest, ChunkLargerThanWindowStitchesAcrossBoundaries) {
  const auto root = temp_root("stitch");
  const DatasetStore store(root);
  const auto ds = make_dataset({10000});  // window is one 4 KiB page
  store.save(ds);

  obs::Registry metrics;
  const DatasetStore reader(root, nullptr, &metrics);
  // Budget of ONE window — strictly smaller than the chunk — is the
  // degenerate case the contract requires to fall back, not fail.
  const auto streamed = reader.load_streamed("streamed", tiny_windows(1));
  const Chunk c = streamed.materialize(0);
  ASSERT_NE(c.payload_buffer(), nullptr);
  EXPECT_FALSE(c.payload_buffer()->borrowed());  // stitched heap slab
  EXPECT_TRUE(same_payload(c, ds.chunk(0)));
  EXPECT_GE(metrics.value("store.stitched_chunks"), 1.0);
  fs::remove_all(root);
}

TEST_F(StreamTest, PoolRecyclesUnderBudget) {
  const auto root = temp_root("budget");
  const DatasetStore store(root);
  std::vector<std::size_t> sizes(32, 6000);
  store.save(make_dataset(sizes));

  obs::Registry metrics;
  const DatasetStore reader(root, nullptr, &metrics);
  const StreamConfig cfg = tiny_windows(2);  // 2-page budget, 2-page chunks
  const auto streamed = reader.load_streamed("streamed", cfg);
  const auto* source =
      dynamic_cast<const StoreStreamSource*>(streamed.source().get());
  ASSERT_NE(source, nullptr);
  double total = 0.0;
  for (std::size_t i = 0; i < streamed.chunk_count(); ++i) {
    total += static_cast<double>(streamed.materialize(i).payload().size());
    EXPECT_LE(source->resident_window_bytes(), cfg.budget_bytes);
  }
  EXPECT_EQ(total, 32.0 * 6000.0);
  EXPECT_GT(metrics.host_value("store.window_recycles"), 0.0);
  EXPECT_EQ(metrics.value("store.windowed_bytes"), total);
  fs::remove_all(root);
}

TEST_F(StreamTest, TruncatedFileThrowsTypedError) {
  const auto root = temp_root("truncated");
  const DatasetStore store(root);
  store.save(make_dataset({100, 9000}));

  const auto streamed = store.load_streamed("streamed", tiny_windows());
  // Truncate chunk 1 *after* the metadata scan: the next acquire re-stats
  // the file and must throw instead of mapping past EOF (SIGBUS).
  fs::resize_file(root / "streamed" / "chunk_1.bin",
                  Chunk::kWireHeaderBytes + 10);
  EXPECT_NO_THROW(streamed.materialize(0));
  EXPECT_THROW(streamed.materialize(1), util::SerializationError);
  fs::remove_all(root);
}

TEST_F(StreamTest, CorruptedPayloadFailsChecksum) {
  const auto root = temp_root("corrupt");
  const DatasetStore store(root);
  store.save(make_dataset({5000}));

  const auto streamed = store.load_streamed("streamed", tiny_windows());
  flip_payload_byte(root / "streamed" / "chunk_0.bin", 2500);
  EXPECT_THROW(streamed.materialize(0), util::SerializationError);
  EXPECT_THROW(streamed.verify_all(), util::SerializationError);
  fs::remove_all(root);
}

TEST_F(StreamTest, HeaderScanRejectsMissingOrShortFiles) {
  const auto root = temp_root("scan");
  const DatasetStore store(root);
  store.save(make_dataset({100, 100}));

  fs::remove(root / "streamed" / "chunk_1.bin");
  EXPECT_THROW(store.load_streamed("streamed", tiny_windows()),
               util::SerializationError);

  std::ofstream(root / "streamed" / "chunk_1.bin", std::ios::binary)
      << "short";
  EXPECT_THROW(store.load_streamed("streamed", tiny_windows()),
               util::SerializationError);
  fs::remove_all(root);
}

TEST_F(StreamTest, InPlaceRescaleMaterializesAtTheNewScale) {
  const auto root = temp_root("rescale");
  const DatasetStore store(root);
  const auto ds = make_dataset({5000}, 2.0);
  store.save(ds);

  auto streamed = store.load_streamed("streamed", tiny_windows());
  EXPECT_DOUBLE_EQ(streamed.materialize(0).virtual_scale(), 2.0);
  // The source serves the stored scale; materialize rebinds the fetched
  // chunk to the dataset's current one.
  streamed.set_uniform_virtual_scale(8.0);
  const Chunk c = streamed.materialize(0);
  EXPECT_DOUBLE_EQ(c.virtual_scale(), 8.0);
  EXPECT_DOUBLE_EQ(c.virtual_bytes(), 8.0 * 5000.0);
  EXPECT_TRUE(same_payload(c, ds.chunk(0)));
  fs::remove_all(root);
}

TEST_F(StreamTest, RefetchWithinBudgetReusesTheResidentWindow) {
  const auto root = temp_root("refetch");
  const DatasetStore store(root);
  store.save(make_dataset({3000, 3000, 3000, 3000}));

  obs::Registry metrics;
  const DatasetStore reader(root, nullptr, &metrics);
  const auto streamed = reader.load_streamed("streamed", tiny_windows(8));
  for (int round = 0; round < 2; ++round)
    for (std::size_t i = 0; i < streamed.chunk_count(); ++i)
      (void)streamed.materialize(i);
  // One window per chunk fits the budget, so only the first round maps;
  // the second is served from the pool (and still checksum-verified).
  EXPECT_EQ(metrics.host_value("store.window_maps"), 4.0);
  EXPECT_EQ(metrics.host_value("store.window_recycles"), 0.0);
  EXPECT_EQ(metrics.value("store.windowed_bytes"), 2.0 * 4.0 * 3000.0);
  fs::remove_all(root);
}

TEST_F(StreamTest, VerifyAllLeavesChunksUnloaded) {
  const auto root = temp_root("verify");
  const DatasetStore store(root);
  store.save(make_dataset({100, 7000}));

  const auto streamed = store.load_streamed("streamed", tiny_windows());
  EXPECT_TRUE(streamed.verify_all());
  for (std::size_t i = 0; i < streamed.chunk_count(); ++i)
    EXPECT_EQ(streamed.chunk(i).loaded(), streamed.chunk(i).real_bytes() == 0);
  fs::remove_all(root);
}

TEST_F(StreamTest, ConcurrentMaterializeIsSafeAndCorrect) {
  const auto root = temp_root("concurrent");
  const DatasetStore store(root);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 24; ++i) sizes.push_back(1000 + 700 * i);
  const auto ds = make_dataset(sizes);
  store.save(ds);

  const auto streamed = store.load_streamed("streamed", tiny_windows(3));
  util::ThreadPool pool(4);
  std::vector<int> ok(sizes.size(), 0);
  for (int round = 0; round < 4; ++round) {
    std::fill(ok.begin(), ok.end(), 0);
    pool.parallel_for(sizes.size(), [&](std::size_t i) {
      ok[i] = same_payload(streamed.materialize(i), ds.chunk(i)) ? 1 : 0;
    });
    EXPECT_EQ(std::count(ok.begin(), ok.end(), 1),
              static_cast<std::ptrdiff_t>(sizes.size()));
  }
  fs::remove_all(root);
}

TEST_F(StreamTest, ConcurrentAcquireOfOneWindow) {
  // Eight workers race on the same chunk under a one-window budget. The
  // chunk straddles two windows, so every fetch evicts the window the
  // other workers need next: misses map outside the pool lock, losing
  // duplicates and evicted windows are unmapped after it is released.
  const auto root = temp_root("one_window");
  const DatasetStore store(root);
  const auto ds = make_dataset({5000});
  store.save(ds);

  const StreamConfig cfg = tiny_windows(1);
  const auto streamed = store.load_streamed("streamed", cfg);
  const auto* source =
      dynamic_cast<const StoreStreamSource*>(streamed.source().get());
  ASSERT_NE(source, nullptr);
  constexpr std::size_t kWorkers = 8;
  constexpr int kFetches = 100;
  util::ThreadPool pool(kWorkers);
  std::vector<int> ok(kWorkers, 0);
  pool.parallel_for(kWorkers, [&](std::size_t w) {
    int same = 0;
    for (int f = 0; f < kFetches; ++f)
      same += same_payload(streamed.materialize(0), ds.chunk(0)) ? 1 : 0;
    ok[w] = same;
  });
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_EQ(ok[w], kFetches) << "worker " << w;
  EXPECT_LE(source->resident_window_bytes(), cfg.budget_bytes);
  fs::remove_all(root);
}

TEST_F(StreamTest, RuntimeNamesTheCorruptedStreamedChunk) {
  // Verify-at-fetch: a streamed chunk is checked by the fetch that hands
  // it to the kernel, so a corrupted one fails the run with a typed error
  // naming it, serial or pooled.
  const auto root = temp_root("runtime_corrupt");
  const DatasetStore store(root);
  const auto ds = testing::make_sum_dataset(24, 64);
  store.save(ds);
  flip_payload_byte(root / ds.meta().name / "chunk_13.bin", 100);
  const auto streamed = store.load_streamed(ds.meta().name, tiny_windows());

  for (const std::size_t threads : {0, 2, 8}) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    const auto setup = testing::pentium_setup(&streamed, 2, 4);
    testing::SumKernel kernel;
    try {
      (void)freeride::Runtime(pool ? &*pool : nullptr).run(setup, kernel);
      ADD_FAILURE() << "run succeeded; threads=" << threads;
    } catch (const util::SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find("chunk 13: checksum mismatch"),
                std::string::npos)
          << e.what() << " (threads=" << threads << ")";
    }
  }
  fs::remove_all(root);
}

TEST_F(StreamTest, TwoPassJobFetchesEachChunkOncePerPass) {
  // The first pass's checksum sweep skips unloaded streamed chunks (their
  // fetch is the check), so a 2-pass job streams every byte exactly twice.
  const auto root = temp_root("fetch_count");
  const DatasetStore store(root);
  const auto ds = testing::make_sum_dataset(24, 64);
  store.save(ds);

  obs::Registry metrics;
  const DatasetStore reader(root, nullptr, &metrics);
  const auto streamed = reader.load_streamed(ds.meta().name, tiny_windows());
  testing::SumKernelParams params;
  params.passes = 2;
  testing::SumKernel kernel(params);
  const auto setup = testing::pentium_setup(&streamed, 2, 4);
  util::ThreadPool pool(4);
  const auto result = freeride::Runtime(&pool).run(setup, kernel);
  EXPECT_EQ(result.passes, 2);
  EXPECT_EQ(metrics.value("store.windowed_bytes"),
            2.0 * static_cast<double>(ds.total_real_bytes()));
  fs::remove_all(root);
}

}  // namespace
}  // namespace fgp::repository
