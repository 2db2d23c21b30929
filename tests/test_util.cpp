// Unit tests for the util module: serialization, RNG determinism,
// statistics, tables, thread pool, union-find.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace fgp::util {
namespace {

// ---------------------------------------------------------------- checks

TEST(Check, PassesOnTrueCondition) { EXPECT_NO_THROW(FGP_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsOnFalseCondition) {
  EXPECT_THROW(FGP_CHECK(1 + 1 == 3), Error);
}

TEST(Check, MessageContainsContext) {
  try {
    FGP_CHECK_MSG(false, "node " << 7 << " missing");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("node 7 missing"), std::string::npos);
  }
}

TEST(Check, ConfigErrorIsAnError) {
  const ConfigError e("bad");
  EXPECT_NE(dynamic_cast<const Error*>(&e), nullptr);
}

// ---------------------------------------------------------- serialization

TEST(Serial, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u32(42);
  w.put_u64(1ull << 40);
  w.put_i64(-17);
  w.put_f64(3.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 42u);
  EXPECT_EQ(r.get_u64(), 1ull << 40);
  EXPECT_EQ(r.get_i64(), -17);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello grid");
  w.put_string("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello grid");
  EXPECT_EQ(r.get_string(), "");
}

TEST(Serial, VectorRoundTrip) {
  ByteWriter w;
  const std::vector<double> xs{1.5, -2.5, 1e300};
  const std::vector<std::uint8_t> empty;
  w.put_vector(xs);
  w.put_vector(empty);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<double>(), xs);
  EXPECT_TRUE(r.get_vector<std::uint8_t>().empty());
}

TEST(Serial, SizeTracksBytesWritten) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.put_u32(1);
  EXPECT_EQ(w.size(), 4u);
  w.put_f64(1.0);
  EXPECT_EQ(w.size(), 12u);
}

TEST(Serial, TruncatedScalarThrows) {
  ByteWriter w;
  w.put_u32(5);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_u64(), SerializationError);
}

TEST(Serial, TruncatedVectorThrows) {
  ByteWriter w;
  w.put_u64(1000);  // claims 1000 doubles, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<double>(), SerializationError);
}

TEST(Serial, TruncatedStringThrows) {
  ByteWriter w;
  w.put_u64(64);
  w.put_bytes("short", 5);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), SerializationError);
}

TEST(Serial, OverflowingVectorLengthThrows) {
  // A length that would overflow count*sizeof(T) must not wrap around.
  ByteWriter w;
  w.put_u64(~0ull / 2);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<double>(), SerializationError);
}

TEST(Serial, RemainingCountsDown) {
  ByteWriter w;
  w.put_u32(1);
  w.put_u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.get_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

/// XXH64 of `s` hashed from a heap buffer of exactly its length, so the
/// address sanitizer catches a read past the tail.
std::uint64_t xxh64_of(const std::string& s) {
  const std::vector<std::uint8_t> bytes(s.begin(), s.end());
  return xxh64(bytes.data(), bytes.size());
}

TEST(Serial, Xxh64MatchesPublishedVectors) {
  // The reference xxHash implementation's values at seed 0.
  EXPECT_EQ(xxh64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64_of("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xxh64_of("abcd"), 0xDE0327B0D25D92CCull);  // the 4-byte tail alone
  // Exactly one 32-byte stripe and no tail.
  EXPECT_EQ(xxh64_of("Nobody inspects the spammish rep"),
            0x96F5BFCBFE7F0D1Aull);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(xxh64_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
  // 43 bytes: one 32-byte stripe, then the 8-byte and 1-byte tails.
  EXPECT_EQ(xxh64_of("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCull);
}

TEST(Serial, Xxh64DetectsEveryBitFlipAtEveryLength) {
  // Lengths 0..96 reach every mix of 32-byte stripes with the 8-, 4- and
  // 1-byte tails. Each buffer is allocated at exactly its length.
  Rng rng(15);
  std::size_t flips = 0;
  for (std::size_t n = 0; n <= 96; ++n) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto clean = xxh64(data.data(), n);
    for (std::size_t bit = 0; bit < 8 * n; ++bit, ++flips) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      data[bit / 8] ^= mask;
      EXPECT_NE(xxh64(data.data(), n), clean) << "n=" << n << " bit=" << bit;
      data[bit / 8] ^= mask;
    }
  }
  EXPECT_EQ(flips, 37248u);

  // Word loads must not depend on alignment: hashing from start offsets
  // 1..7 equals hashing an aligned copy of the same bytes.
  constexpr std::size_t kLen = 3 * 32 + 8 + 4 + 3;
  for (std::size_t offset = 1; offset < 8; ++offset) {
    std::vector<std::uint8_t> buf(offset + kLen);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::vector<std::uint8_t> copy(buf.begin() + offset, buf.end());
    EXPECT_EQ(xxh64(buf.data() + offset, kLen), xxh64(copy.data(), kLen))
        << "offset=" << offset;
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng r(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(r.next_gaussian());
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stdev(), 1.0, 0.05);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitMixKnownProgressionIsDeterministic) {
  SplitMix64 a(0), b(0);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
}

// ------------------------------------------------------------------ stats

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  a.add(1.0);
  a.add(3.0);
  a.add(5.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_NEAR(a.stdev(), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(Stats, AccumulatorEmptyThrows) {
  Accumulator a;
  EXPECT_THROW(a.mean(), Error);
  EXPECT_THROW(a.min(), Error);
  EXPECT_THROW(a.stdev(), Error);
}

TEST(Stats, RelativeErrorMatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(relative_error(10.0, 9.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 11.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(5.0, 5.0), 0.0);
}

TEST(Stats, RelativeErrorRequiresPositiveExact) {
  EXPECT_THROW(relative_error(0.0, 1.0), Error);
}

// ------------------------------------------------------------------ table

TEST(Table, PrintsAlignedColumns) {
  Table t({"config", "error"});
  t.add_row({"1-1", "0.50%"});
  t.add_row({"8-16", "12.30%"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("config"), std::string::npos);
  EXPECT_NE(s.find("8-16"), std::string::npos);
  EXPECT_NE(s.find("12.30%"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.0123, 2), "1.23%");
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  // A task's typed error reaches the parallel_for caller as that type.
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// ------------------------------------------------------------- union-find

TEST(UnionFind, SingletonsInitiallyDisjoint) {
  UnionFind uf(4);
  EXPECT_EQ(uf.component_count(), 4u);
  EXPECT_FALSE(uf.connected(0, 3));
}

TEST(UnionFind, UniteMergesComponents) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already connected
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_EQ(uf.component_count(), 3u);
  EXPECT_EQ(uf.set_size(2), 3u);
}

TEST(UnionFind, TransitiveChains) {
  UnionFind uf(100);
  for (std::size_t i = 0; i + 1 < 100; ++i) uf.unite(i, i + 1);
  EXPECT_TRUE(uf.connected(0, 99));
  EXPECT_EQ(uf.component_count(), 1u);
  EXPECT_EQ(uf.set_size(50), 100u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), Error);
}

}  // namespace
}  // namespace fgp::util
