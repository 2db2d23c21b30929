// Robustness / failure-injection tests: every reduction object and chunk
// format must survive adversarial bytes — truncations and random
// corruptions either deserialize to *something* or throw a typed error;
// they never crash or hang.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "apps/ann.h"
#include "apps/apriori.h"
#include "apps/defect.h"
#include "apps/em.h"
#include "apps/kmeans.h"
#include "apps/knn.h"
#include "apps/knn_classify.h"
#include "apps/vortex.h"
#include "datagen/flowfield.h"
#include "datagen/lattice.h"
#include "datagen/transactions.h"
#include "obs/drift.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/validate.h"
#include "repository/chunk.h"
#include "repository/payload.h"
#include "repository/store.h"
#include "repository/stream.h"
#include "service/config.h"
#include "sim/cluster.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fgp {
namespace {

/// Builds one populated object of each application type.
struct NamedObject {
  std::string name;
  std::function<std::unique_ptr<freeride::ReductionObject>()> make_empty;
  std::vector<std::uint8_t> valid_bytes;
};

std::vector<NamedObject> populated_objects() {
  std::vector<NamedObject> out;

  {
    apps::KMeansObject o(4, 3);
    o.sums_.assign(12, 1.5);
    o.counts_.assign(4, 9);
    o.sse = 3.25;
    util::ByteWriter w;
    o.serialize(w);
    out.push_back({"kmeans",
                   [] { return std::make_unique<apps::KMeansObject>(); },
                   w.take()});
  }
  {
    apps::EMObject o(2, 3);
    o.resp = {1, 2};
    o.sum_x.assign(6, 0.5);
    o.sum_x2.assign(6, 0.25);
    o.labels[7] = {0, 1, 0, 1};
    o.points = 4;
    util::ByteWriter w;
    o.serialize(w);
    out.push_back(
        {"em", [] { return std::make_unique<apps::EMObject>(); }, w.take()});
  }
  {
    apps::KnnObject o(2, 3, 2);
    const double p[2] = {1.0, 2.0};
    o.insert(0, 1.0, p);
    o.insert(1, 2.0, p);
    util::ByteWriter w;
    o.serialize(w);
    out.push_back(
        {"knn", [] { return std::make_unique<apps::KnnObject>(); }, w.take()});
  }
  {
    apps::KnnClassifyObject o(2, 3);
    o.insert(0, 1.0, 5);
    o.predicted = {5, -1};
    util::ByteWriter w;
    o.serialize(w);
    out.push_back({"knn-classify",
                   [] { return std::make_unique<apps::KnnClassifyObject>(); },
                   w.take()});
  }
  {
    apps::VortexObject o;
    apps::RegionFragment f;
    f.sign = 1;
    f.cells = 9;
    f.boundary = {{1, 2}, {1, 3}};
    o.fragments.push_back(f);
    o.vortices.push_back({1, 2, 9, 1});
    util::ByteWriter w;
    o.serialize(w);
    out.push_back({"vortex",
                   [] { return std::make_unique<apps::VortexObject>(); },
                   w.take()});
  }
  {
    apps::DefectObject o;
    o.structures.push_back({1, {0, 0, 0, 1, 0, 0}});
    util::ByteWriter w;
    o.serialize(w);
    out.push_back({"defect",
                   [] { return std::make_unique<apps::DefectObject>(); },
                   w.take()});
  }
  {
    apps::AprioriObject o(3);
    o.counts = {1, 2, 3};
    o.transactions = 6;
    util::ByteWriter w;
    o.serialize(w);
    out.push_back({"apriori",
                   [] { return std::make_unique<apps::AprioriObject>(); },
                   w.take()});
  }
  {
    apps::AnnObject o(2, 3, 2);
    o.loss = 1.0;
    o.examples = 3;
    util::ByteWriter w;
    o.serialize(w);
    out.push_back(
        {"ann", [] { return std::make_unique<apps::AnnObject>(); }, w.take()});
  }
  return out;
}

TEST(Fuzz, ValidBytesRoundTripForEveryObject) {
  for (const auto& obj : populated_objects()) {
    auto fresh = obj.make_empty();
    util::ByteReader r(obj.valid_bytes);
    EXPECT_NO_THROW(fresh->deserialize(r)) << obj.name;
    // Re-serialization is byte-identical (canonical form).
    util::ByteWriter w;
    fresh->serialize(w);
    EXPECT_EQ(w.bytes(), obj.valid_bytes) << obj.name;
  }
}

TEST(Fuzz, EveryTruncationEitherThrowsOrParses) {
  for (const auto& obj : populated_objects()) {
    for (std::size_t cut = 0; cut < obj.valid_bytes.size(); ++cut) {
      std::vector<std::uint8_t> truncated(obj.valid_bytes.begin(),
                                          obj.valid_bytes.begin() +
                                              static_cast<std::ptrdiff_t>(cut));
      auto fresh = obj.make_empty();
      util::ByteReader r(truncated);
      try {
        fresh->deserialize(r);  // success is acceptable (prefix happens to parse)
      } catch (const util::Error&) {
        // typed failure is the expected outcome
      }
    }
  }
}

TEST(Fuzz, RandomCorruptionNeverCrashes) {
  util::Rng rng(2024);
  for (const auto& obj : populated_objects()) {
    for (int trial = 0; trial < 200; ++trial) {
      auto bytes = obj.valid_bytes;
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int f = 0; f < flips; ++f)
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      auto fresh = obj.make_empty();
      util::ByteReader r(bytes);
      try {
        fresh->deserialize(r);
      } catch (const std::exception&) {
        // Any typed failure is a controlled outcome (SerializationError
        // from the bounds checks, or length/alloc errors when a corrupted
        // container length slips past them). What must never happen is a
        // crash or hang.
      }
    }
  }
  SUCCEED();
}

// --- ByteReader malformed/truncated corpora ------------------------------
// Direct attacks on the deserialization layer in util/serial: every entry
// is a hostile byte string a corrupted repository could hand us. Each must
// throw SerializationError — never crash, over-read, or allocate wildly.
// The asan-ubsan preset turns any over-read into a hard failure.

std::vector<std::uint8_t> le64(std::uint64_t v) {
  util::ByteWriter w;
  w.put_u64(v);
  return w.take();
}

void append(std::vector<std::uint8_t>& dst,
            const std::vector<std::uint8_t>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

TEST(Fuzz, ByteReaderEmptyBufferThrowsTyped) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(util::ByteReader(empty).get_u32(), util::SerializationError);
  EXPECT_THROW(util::ByteReader(empty).get_u64(), util::SerializationError);
  EXPECT_THROW(util::ByteReader(empty).get_f64(), util::SerializationError);
  EXPECT_THROW(util::ByteReader(empty).get_string(),
               util::SerializationError);
  EXPECT_THROW(util::ByteReader(empty).get_vector<double>(),
               util::SerializationError);
}

TEST(Fuzz, ByteReaderTruncatedMidScalarThrowsTyped) {
  // Every strict prefix of an 8-byte scalar must be rejected.
  const auto full = le64(0x1122334455667788ull);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> bytes(full.begin(),
                                    full.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    util::ByteReader r(bytes);
    EXPECT_THROW(r.get_u64(), util::SerializationError) << "cut=" << cut;
  }
}

TEST(Fuzz, ByteReaderHostileStringLengthThrowsTyped) {
  // Length prefixes far beyond the buffer, including ones chosen to
  // overflow naive `pos + n` arithmetic.
  for (const std::uint64_t n :
       {std::uint64_t{9}, std::uint64_t{1} << 32, std::uint64_t{1} << 62,
        ~std::uint64_t{0}}) {
    auto bytes = le64(n);
    bytes.push_back('x');  // one byte of payload, n promised
    util::ByteReader r(bytes);
    EXPECT_THROW(r.get_string(), util::SerializationError) << "n=" << n;
  }
}

TEST(Fuzz, ByteReaderHostileVectorCountThrowsTyped) {
  // Element counts whose byte size overflows or overruns must be rejected
  // *before* any allocation of that size is attempted.
  for (const std::uint64_t n :
       {std::uint64_t{3}, std::uint64_t{1} << 32, std::uint64_t{1} << 61,
        ~std::uint64_t{0} / 8, ~std::uint64_t{0}}) {
    auto bytes = le64(n);
    append(bytes, le64(0xdeadbeefull));  // 8 bytes of payload, n*8 promised
    util::ByteReader r(bytes);
    EXPECT_THROW(r.get_vector<double>(), util::SerializationError)
        << "n=" << n;
  }
}

TEST(Fuzz, ByteReaderNestedContainerTruncationThrowsTyped) {
  // A valid outer count whose inner payload is cut off mid-element: the
  // vector<double> read must fail typed, at every truncation point.
  util::ByteWriter w;
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  const auto full = w.take();
  for (std::size_t cut = sizeof(std::uint64_t); cut < full.size(); ++cut) {
    std::vector<std::uint8_t> bytes(full.begin(),
                                    full.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    util::ByteReader r(bytes);
    EXPECT_THROW(r.get_vector<double>(), util::SerializationError)
        << "cut=" << cut;
  }
}

TEST(Fuzz, ObjectCountPrefixesAreBoundedByPayload) {
  // A corrupted fragment/structure-count prefix must throw a typed error
  // *before* any count-driven allocation — under asan-ubsan a raw
  // reserve(count) here aborts with allocation-size-too-big.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
    const auto bytes = le64(n);
    {
      apps::VortexObject o;
      util::ByteReader r(bytes);
      EXPECT_THROW(o.deserialize(r), util::SerializationError) << "n=" << n;
    }
    {
      apps::DefectObject o;
      util::ByteReader r(bytes);
      EXPECT_THROW(o.deserialize(r), util::SerializationError) << "n=" << n;
    }
  }
}

TEST(Fuzz, ByteReaderRandomGarbageNeverCrashesTypedOnly) {
  // Random byte soup against a mixed read schedule. Outcomes are either a
  // clean parse (tiny reads can succeed by chance) or SerializationError;
  // anything else — crash, hang, foreign exception — fails the test.
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    util::ByteReader r(junk);
    try {
      while (!r.exhausted()) {
        switch (rng.next_below(4)) {
          case 0: (void)r.get_u32(); break;
          case 1: (void)r.get_f64(); break;
          case 2: (void)r.get_string(); break;
          default: (void)r.get_vector<std::uint32_t>(); break;
        }
      }
    } catch (const util::SerializationError&) {
      // the only acceptable failure mode
    }
  }
  SUCCEED();
}

// --- Observability report corpora ----------------------------------------
// The obs JSON parser and report validators read files that may come off
// disk or a CI artifact store: every hostile input must end in a typed
// SerializationError (unparseable) or a validation error list (parseable
// but malformed) — never a crash, hang or unbounded recursion.

/// A small valid metrics report to truncate and corrupt.
std::string valid_metrics_report() {
  obs::Registry reg;
  reg.add("wan.repo-compute.bytes", 4096.0);
  reg.set("runtime.passes", 3.0);
  reg.observe("phase.disk", 0.25);
  reg.add("pool.steals", 7.0, obs::Domain::Host);
  return reg.to_json(true);
}

TEST(Fuzz, ObsJsonRejectsMalformedDocumentsTyped) {
  const char* corpus[] = {
      "",
      "   ",
      "{",
      "}",
      "[",
      "[1,",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "[1, 2,, 3]",
      "\"unterminated",
      "\"bad \\x escape\"",
      "\"\\u12\"",
      "tru",
      "nulll",
      "+1",
      "1e",
      "1.",
      "- 1",
      "NaN",
      "Infinity",
      "{\"a\":1} trailing",
      "\x01\x02\x03",
  };
  for (const char* text : corpus)
    EXPECT_THROW(obs::json::parse(text), util::SerializationError) << text;
}

TEST(Fuzz, ObsJsonBoundsRecursionDepth) {
  // 4000 nested arrays / objects: far past max_depth, must reject rather
  // than recurse (the asan preset turns a stack overflow into a crash).
  std::string arrays(4000, '[');
  arrays.append(4000, ']');
  EXPECT_THROW(obs::json::parse(arrays), util::SerializationError);

  std::string objects;
  for (int i = 0; i < 4000; ++i) objects += "{\"k\":";
  objects += "1";
  objects.append(4000, '}');
  EXPECT_THROW(obs::json::parse(objects), util::SerializationError);
}

TEST(Fuzz, ReportValidatorSurvivesEveryTruncation) {
  const std::string report = valid_metrics_report();
  ASSERT_TRUE(obs::validate_report_text(report).ok());
  // Cuts that only strip trailing whitespace leave a complete document;
  // every shorter prefix must fail in a controlled way.
  const std::size_t meaningful = report.find_last_of('}') + 1;
  for (std::size_t cut = 0; cut < report.size(); ++cut) {
    const std::string truncated = report.substr(0, cut);
    try {
      // Parseable prefixes must yield an error list, never a crash; a
      // clean pass is only possible for the whitespace-only cuts.
      const auto v = obs::validate_report_text(truncated);
      EXPECT_TRUE(!v.ok() || cut >= meaningful) << "cut=" << cut;
    } catch (const util::SerializationError&) {
      // unparseable prefix: typed failure is the expected outcome
    }
  }
}

TEST(Fuzz, ReportValidatorSurvivesRandomCorruption) {
  const std::string report = valid_metrics_report();
  util::Rng rng(4711);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = report;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] =
          static_cast<char>(rng.next_below(256));
    try {
      (void)obs::validate_report_text(bytes);
    } catch (const util::SerializationError&) {
      // controlled outcome; anything else (crash, hang, other exception
      // type) fails the test run
    }
  }
  SUCCEED();
}

TEST(Fuzz, ReportValidatorRejectsWrongShapesWithErrors) {
  // Parseable documents whose shape is wrong: the validator must return
  // error lists (kind Unknown or errors non-empty), never throw.
  const char* corpus[] = {
      "null",
      "42",
      "[]",
      "{}",
      "{\"schema\":\"unknown-schema\"}",
      "{\"schema\":42}",
      "{\"schema\":\"fgpred-trace-v1\"}",
      "{\"schema\":\"fgpred-trace-v1\",\"traceEvents\":42}",
      "{\"schema\":\"fgpred-trace-v1\",\"traceEvents\":[42]}",
      "{\"schema\":\"fgpred-trace-v1\",\"traceEvents\":[{\"ph\":\"Q\"}]}",
      "{\"schema\":\"fgpred-trace-v1\",\"traceEvents\":[{\"ph\":\"B\","
      "\"pid\":0,\"tid\":0,\"ts\":-5,\"name\":\"x\"}]}",
      "{\"schema\":\"fgpred-metrics-v1\"}",
      "{\"schema\":\"fgpred-metrics-v1\",\"deterministic\":[]}",
      "{\"schema\":\"fgpred-metrics-v1\",\"deterministic\":"
      "{\"a\":{\"type\":\"counter\"}}}",
      "{\"schema\":\"fgpred-residuals-v1\"}",
      "{\"schema\":\"fgpred-residuals-v1\",\"points\":[{}]}",
      "{\"schema\":\"fgpred-residuals-v1\",\"points\":[{\"label\":\"1-1\","
      "\"predicted\":{},\"observed\":{},\"residual\":{},"
      "\"rel_error_total\":0}]}",
      // PR 9 service-observability schemas.
      "{\"schema\":\"fgpred-slowlog-v1\"}",
      "{\"schema\":\"fgpred-slowlog-v1\",\"threshold_s\":-1,"
      "\"capacity\":1,\"seen\":0,\"entries\":[]}",
      // An entry despite zero threshold crossings, and an empty entry.
      "{\"schema\":\"fgpred-slowlog-v1\",\"threshold_s\":0,"
      "\"capacity\":4,\"seen\":0,\"entries\":[{}]}",
      // A logged latency that does not exceed the threshold.
      "{\"schema\":\"fgpred-slowlog-v1\",\"threshold_s\":0.5,"
      "\"capacity\":4,\"seen\":1,\"entries\":[{\"app\":\"em\","
      "\"dataset\":\"d\",\"latency_s\":0.1,\"candidates_considered\":1,"
      "\"chosen\":\"\",\"error\":\"\",\"topology_version\":0}]}",
      "{\"schema\":\"fgpred-drift-v1\"}",
      "{\"schema\":\"fgpred-drift-v1\",\"alpha\":2,\"window\":64,"
      "\"band\":0.1,\"points\":0,\"components\":{},\"drifting\":false}",
      // Top-level verdict contradicting the (all-steady) components.
      "{\"schema\":\"fgpred-drift-v1\",\"alpha\":0.2,\"window\":64,"
      "\"band\":0.1,\"points\":5,\"components\":{"
      "\"disk\":{\"ewma\":0,\"window_mean\":0,\"window_var\":0,"
      "\"drifting\":false},"
      "\"network\":{\"ewma\":0,\"window_mean\":0,\"window_var\":0,"
      "\"drifting\":false},"
      "\"compute_local\":{\"ewma\":0,\"window_mean\":0,\"window_var\":0,"
      "\"drifting\":false},"
      "\"ro_comm\":{\"ewma\":0,\"window_mean\":0,\"window_var\":0,"
      "\"drifting\":false},"
      "\"global_red\":{\"ewma\":0,\"window_mean\":0,\"window_var\":0,"
      "\"drifting\":false}},\"drifting\":true}",
      // Not a schema the validator knows.
      "{\"schema\":\"fgpred-snapshots-v1\"}",
  };
  for (const char* text : corpus) {
    const auto v = obs::validate_report_text(text);
    EXPECT_FALSE(v.ok()) << text;
  }
}

TEST(Fuzz, ServiceObservabilityReportsSurviveTruncationAndCorruption) {
  // Valid slowlog and drift documents straight from their recorders,
  // then the same truncation / corruption discipline as the metrics
  // report: typed error or an error list, never a crash.
  obs::SlowQueryLog slowlog(0.001, 4);
  obs::SlowQueryEntry entry;
  entry.app = "em";
  entry.dataset = "ds-\"quoted\"\n";  // hostile strings must escape cleanly
  entry.latency_s = 0.25;
  entry.candidates_considered = 7;
  entry.chosen = "repo-0/hpc-1/8";
  entry.topology_version = 3;
  slowlog.maybe_record(entry);
  obs::DriftMonitor drift;
  obs::ResidualPoint pt;
  pt.label = "p";
  pt.predicted = {1.0, 2.0, 3.0, 0.5, 0.25};
  pt.observed = {2.0, 2.0, 3.0, 0.5, 0.25};
  for (int i = 0; i < 8; ++i) drift.observe(pt);

  util::Rng rng(20260808);
  for (const std::string& report : {slowlog.to_json(), drift.to_json()}) {
    ASSERT_TRUE(obs::validate_report_text(report).ok());
    const std::size_t meaningful = report.find_last_of('}') + 1;
    for (std::size_t cut = 0; cut < report.size(); ++cut) {
      try {
        const auto v = obs::validate_report_text(report.substr(0, cut));
        EXPECT_TRUE(!v.ok() || cut >= meaningful) << "cut=" << cut;
      } catch (const util::SerializationError&) {
        // unparseable prefix: typed failure is the expected outcome
      }
    }
    for (int trial = 0; trial < 150; ++trial) {
      std::string bytes = report;
      const int flips = 1 + static_cast<int>(rng.next_below(6));
      for (int f = 0; f < flips; ++f)
        bytes[rng.next_below(bytes.size())] =
            static_cast<char>(rng.next_below(256));
      try {
        (void)obs::validate_report_text(bytes);
      } catch (const util::SerializationError&) {
        // controlled outcome
      }
    }
  }
}

// --- Chunk wire-format corpora -------------------------------------------
// Hostile byte streams against Chunk::read_from, the parser every store
// load path funnels through. Acceptable outcomes: a verified chunk or a
// typed SerializationError — never a crash, over-read, or a chunk whose
// checksum was not validated.

/// The canonical wire image of a small chunk.
std::string chunk_wire_image(const repository::Chunk& c) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  c.write_to(ss);
  return ss.str();
}

TEST(Fuzz, ChunkWireEveryTruncationThrowsTyped) {
  const auto c = repository::make_chunk<double>(1, {1.0, 2.0, 3.0}, 2.0);
  const std::string full = chunk_wire_image(c);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream ss(full.substr(0, cut),
                         std::ios::in | std::ios::binary);
    EXPECT_THROW(repository::Chunk::read_from(ss, full.size()),
                 util::SerializationError)
        << "cut=" << cut;
  }
}

TEST(Fuzz, ChunkWireZeroLengthPayloadWithTrailingGarbageParses) {
  // An empty payload followed by junk: the parser must consume exactly the
  // 32-byte header, skip the payload read entirely (an empty vector's
  // data() may be null), and leave the garbage untouched in the stream.
  const repository::Chunk c(3, std::vector<std::uint8_t>{}, 1.0);
  std::stringstream ss(chunk_wire_image(c) + "\xde\xad\xbe\xef garbage",
                       std::ios::in | std::ios::binary);
  const auto back = repository::Chunk::read_from(ss, 1 << 20);
  EXPECT_EQ(back.id(), 3u);
  EXPECT_EQ(back.real_bytes(), 0u);
  EXPECT_TRUE(back.verify());
}

TEST(Fuzz, ChunkWireLengthPrefixAtLimitThrowsTyped) {
  // A length prefix exactly equal to payload_limit (the file size, header
  // included) passes the bound check but can never be satisfied by the
  // remaining bytes: the short read must throw typed, not return a chunk
  // built from an under-filled buffer.
  const auto c = repository::make_chunk<double>(4, {5.0, 6.0}, 1.0);
  std::string image = chunk_wire_image(c);
  const std::uint64_t limit = image.size();
  std::memcpy(image.data() + 24, &limit, sizeof(limit));
  std::stringstream ss(image, std::ios::in | std::ios::binary);
  EXPECT_THROW(repository::Chunk::read_from(ss, limit),
               util::SerializationError);
}

TEST(Fuzz, ChunkWireRandomCorruptionTypedOnly) {
  // Random flips anywhere in the image: the checksum (or an earlier bounds
  // check) must catch payload damage; header damage may also trip the
  // positive-scale invariant. Any util::Error is controlled; scale flips
  // that leave a valid positive double can still parse cleanly.
  const auto c = repository::make_chunk<double>(9, {1.5, 2.5, 3.5}, 4.0);
  const std::string full = chunk_wire_image(c);
  util::Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = full;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<char>(1 + rng.next_below(255));
    std::stringstream ss(bytes, std::ios::in | std::ios::binary);
    try {
      const auto back = repository::Chunk::read_from(ss, bytes.size());
      EXPECT_TRUE(back.verify());  // a surviving parse is checksum-clean
    } catch (const util::Error&) {
      // typed rejection is the expected outcome
    }
  }
  SUCCEED();
}

// --- Streamed-reader corpus ----------------------------------------------
// The out-of-core reader (DatasetStore::load_streamed + materialize,
// DESIGN.md §15) parses chunk files in two stages — a 32-byte header scan,
// then windowed payload mapping with a checksum re-verify — and both must
// hold the same line as Chunk::read_from: a hostile store directory ends
// in a typed error or a checksum-clean chunk, never a crash, SIGBUS or
// unverified bytes.

TEST(Fuzz, StreamedReaderSurvivesHostileStoreDirectories) {
  if (!repository::PayloadBuffer::mmap_supported())
    GTEST_SKIP() << "no mmap on this platform; load_streamed falls back";
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("fgp_fuzz_stream_" + std::to_string(::getpid()));
  fs::remove_all(root);
  const repository::DatasetStore store(root);

  repository::DatasetMeta meta;
  meta.name = "hostile";
  meta.schema = "bytes";
  repository::ChunkedDataset ds(meta);
  util::Rng rng(4242);
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> bytes(600 + 997 * i);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    ds.add_chunk(repository::Chunk(i, std::move(bytes), 2.0));
  }
  store.save(ds);
  const fs::path dir = root / "hostile";

  repository::StreamConfig cfg;
  cfg.window_bytes = 1;  // one page: payloads straddle windows
  cfg.budget_bytes = 8192;
  const auto original =
      [&](std::size_t i) { return ds.chunk(i).payload(); };

  for (int trial = 0; trial < 200; ++trial) {
    // Re-save pristine files, then mutate one chunk file: byte flips,
    // truncation, or header-only junk, chosen per trial.
    store.save(ds);
    const std::size_t victim = rng.next_below(4);
    const fs::path p = dir / ("chunk_" + std::to_string(victim) + ".bin");
    const auto mode = rng.next_below(3);
    if (mode == 0) {
      std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
      const std::uint64_t size = fs::file_size(p);
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < flips; ++k) {
        const auto off = static_cast<std::streamoff>(rng.next_below(size));
        f.seekg(off);
        const int byte = f.get();
        f.seekp(off);
        f.put(static_cast<char>(byte ^ (1 + rng.next_below(255))));
      }
    } else if (mode == 1) {
      fs::resize_file(p, rng.next_below(fs::file_size(p)));
    } else {
      std::ofstream f(p, std::ios::binary | std::ios::trunc);
      std::vector<char> junk(32 + rng.next_below(128));
      for (auto& b : junk) b = static_cast<char>(rng.next_below(256));
      f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }

    try {
      const auto streamed = store.load_streamed("hostile", cfg);
      for (std::size_t i = 0; i < streamed.chunk_count(); ++i) {
        const auto chunk = streamed.materialize(i);
        // A chunk that materializes cleanly must carry verified bytes;
        // untouched chunks must be byte-exact.
        EXPECT_TRUE(chunk.verify()) << "trial " << trial << " chunk " << i;
        if (i != victim) {
          const auto got = chunk.payload();
          const auto want = original(i);
          EXPECT_TRUE(got.size() == want.size() &&
                      std::equal(got.begin(), got.end(), want.begin()))
              << "trial " << trial << " chunk " << i;
        }
      }
    } catch (const util::Error&) {
      // typed rejection is the expected outcome for damaged files
    }
  }
  fs::remove_all(root);
}

// --- Prediction-service configuration corpora ----------------------------
// The selection service is configured by files and fed query batches from
// outside the trust boundary (src/service/config.h). Contract: malformed
// JSON throws SerializationError, parseable documents violating a
// documented bound throw ConfigError — never a crash, hang, or a config
// silently clamped to something the caller did not write.

TEST(Fuzz, ServiceConfigRejectsHostileDocumentsTyped) {
  // Unparseable bytes: the JSON layer's typed rejection.
  const char* unparseable[] = {"", "{", "{\"shards\":}", "\x01\x02", "tru"};
  for (const char* text : unparseable)
    EXPECT_THROW(service::parse_service_config(text),
                 util::SerializationError)
        << text;

  // Parseable but out of contract: typed ConfigError.
  const char* invalid[] = {
      "[]",
      "null",
      "42",
      "{\"shards\": 0}",
      "{\"shards\": -4}",
      "{\"shards\": 4097}",
      "{\"shards\": 2.5}",
      "{\"shards\": \"many\"}",
      "{\"shards\": 1e300}",
      "{\"max_top_k\": 0}",
      "{\"max_batch\": -1}",
      "{\"unknown_field\": 1}",
      "{\"shards\": 4, \"sharks\": 4}",
  };
  for (const char* text : invalid)
    EXPECT_THROW(service::parse_service_config(text), util::ConfigError)
        << text;
}

TEST(Fuzz, ServiceQueryBatchRejectsHostileDocumentsTyped) {
  const service::ServiceConfig config;  // defaults: max_top_k 64
  const char* invalid[] = {
      "{}",
      "42",
      "[42]",
      "[{}]",
      "[{\"app\": \"a\"}]",
      "[{\"app\": \"\", \"dataset\": \"d\", \"dataset_bytes\": 1}]",
      "[{\"app\": \"a\", \"dataset\": \"\", \"dataset_bytes\": 1}]",
      "[{\"app\": 42, \"dataset\": \"d\", \"dataset_bytes\": 1}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": 0}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": -5}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": \"big\"}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": 1,"
      " \"top_k\": 0}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": 1,"
      " \"top_k\": 65}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": 1,"
      " \"top_k\": 1.5}]",
      "[{\"app\": \"a\", \"dataset\": \"d\", \"dataset_bytes\": 1,"
      " \"extra\": 1}]",
  };
  for (const char* text : invalid)
    EXPECT_THROW(service::parse_query_batch(text, config), util::ConfigError)
        << text;
  EXPECT_THROW(service::parse_query_batch("[{", config),
               util::SerializationError);

  // Batch-size cap: one query over the limit is refused whole.
  service::ServiceConfig tiny;
  tiny.max_batch = 2;
  EXPECT_THROW(service::parse_query_batch(
                   "[{\"app\":\"a\",\"dataset\":\"d\",\"dataset_bytes\":1},"
                   "{\"app\":\"a\",\"dataset\":\"d\",\"dataset_bytes\":1},"
                   "{\"app\":\"a\",\"dataset\":\"d\",\"dataset_bytes\":1}]",
                   tiny),
               util::ConfigError);
}

TEST(Fuzz, ServiceConfigEveryTruncationThrowsTyped) {
  const std::string full =
      R"({"shards": 64, "max_top_k": 8, "max_batch": 4096})";
  ASSERT_EQ(service::parse_service_config(full).shards, 64);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW((void)service::parse_service_config(full.substr(0, cut)),
                 util::Error)
        << "cut=" << cut;
  }
}

TEST(Fuzz, ServiceQueryBatchSurvivesRandomCorruption) {
  const service::ServiceConfig config;
  const std::string valid =
      R"([{"app": "em", "dataset": "ds-1", "dataset_bytes": 1e9,
           "top_k": 4},
          {"app": "kmeans", "dataset": "ds-2", "dataset_bytes": 2e8}])";
  ASSERT_EQ(service::parse_query_batch(valid, config).size(), 2u);
  util::Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] =
          static_cast<char>(rng.next_below(256));
    try {
      // A surviving parse must still respect the documented bounds.
      const auto queries = service::parse_query_batch(bytes, config);
      for (const auto& q : queries) {
        EXPECT_FALSE(q.app.empty());
        EXPECT_FALSE(q.dataset.empty());
        EXPECT_GT(q.dataset_bytes, 0.0);
        EXPECT_GE(q.top_k, 1);
        EXPECT_LE(q.top_k, config.max_top_k);
      }
    } catch (const util::Error&) {
      // typed rejection is the expected outcome for damaged documents
    }
  }
}

TEST(Fuzz, ChunkParsersRejectRandomBytes) {
  util::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(16 + rng.next_below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    const repository::Chunk chunk(0, junk, 1.0);
    // Each parser must throw a typed error or return a consistent view;
    // random bytes virtually never form a valid header, so expect throws.
    EXPECT_THROW(
        {
          try {
            datagen::parse_field_chunk(chunk);
            datagen::parse_lattice_chunk(chunk);
            datagen::parse_transactions(chunk);
          } catch (const util::Error&) {
            throw;
          }
        },
        util::Error)
        << "trial " << trial;
  }
}

// --- hostile simulation specs -------------------------------------------
//
// Scenario specs (machines, clusters, WAN pipes) arrive from config files
// and sweep generators; a NaN bandwidth or negative latency poisons every
// virtual-time charge downstream. validate() must either accept a spec or
// throw typed ConfigError — never crash, and never let a non-finite,
// negative or zero rate through.

namespace {

/// Values every numeric spec field is battered with. The first group must
/// be rejected wherever a positive rate is required; the second group is
/// legal there and must never throw.
const double kHostileRates[] = {
    0.0,
    -0.0,
    -1.0,
    -1e308,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::signaling_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
};
const double kLegalRates[] = {
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min(),
    1e-300,
    1.0,
    1.7e308,
};

}  // namespace

TEST(Fuzz, MachineSpecRejectsHostileRatesTyped) {
  // Every positive-rate field of the machine model, one mutation at a time.
  const auto mutate = std::vector<std::function<void(sim::MachineSpec&,
                                                     double)>>{
      [](sim::MachineSpec& m, double v) { m.cpu_flops = v; },
      [](sim::MachineSpec& m, double v) { m.mem_Bps = v; },
      [](sim::MachineSpec& m, double v) { m.disk.bandwidth_Bps = v; },
      [](sim::MachineSpec& m, double v) { m.nic.bandwidth_Bps = v; },
  };
  for (std::size_t f = 0; f < mutate.size(); ++f) {
    for (const double v : kHostileRates) {
      sim::MachineSpec m = sim::opteron250();
      mutate[f](m, v);
      EXPECT_THROW(m.validate(), util::ConfigError)
          << "field " << f << " value " << v;
    }
    for (const double v : kLegalRates) {
      sim::MachineSpec m = sim::opteron250();
      mutate[f](m, v);
      EXPECT_NO_THROW(m.validate()) << "field " << f << " value " << v;
    }
  }
}

TEST(Fuzz, MachineSpecRejectsHostileCostsAndCounts) {
  // Non-negative costs: negative and non-finite rejected, zero accepted.
  const auto costs = std::vector<std::function<void(sim::MachineSpec&,
                                                    double)>>{
      [](sim::MachineSpec& m, double v) { m.disk.seek_s = v; },
      [](sim::MachineSpec& m, double v) { m.disk.startup_s = v; },
      [](sim::MachineSpec& m, double v) { m.nic.latency_s = v; },
  };
  for (std::size_t f = 0; f < costs.size(); ++f) {
    for (const double v : kHostileRates) {
      if (v == 0.0) continue;  // zero cost is legal
      sim::MachineSpec m = sim::opteron250();
      costs[f](m, v);
      EXPECT_THROW(m.validate(), util::ConfigError)
          << "cost field " << f << " value " << v;
    }
    sim::MachineSpec zero = sim::opteron250();
    costs[f](zero, 0.0);
    EXPECT_NO_THROW(zero.validate());
  }
  for (const int v : {0, -1, std::numeric_limits<int>::min()}) {
    sim::MachineSpec m = sim::opteron250();
    m.cores = v;
    EXPECT_THROW(m.validate(), util::ConfigError) << "cores " << v;
    m = sim::opteron250();
    m.disk.disks = v;
    EXPECT_THROW(m.validate(), util::ConfigError) << "disks " << v;
  }
}

TEST(Fuzz, WanSpecRejectsHostileFieldsTyped) {
  for (const double v : kHostileRates) {
    sim::WanSpec w = sim::wan_mbps(10);
    w.per_link_Bps = v;
    EXPECT_THROW(w.validate(), util::ConfigError) << "per_link " << v;
    w = sim::wan_mbps(10);
    w.aggregate_cap_Bps = v;
    EXPECT_THROW(w.validate(), util::ConfigError) << "aggregate_cap " << v;
    if (v != 0.0) {
      w = sim::wan_mbps(10);
      w.latency_s = v;
      EXPECT_THROW(w.validate(), util::ConfigError) << "latency " << v;
    }
  }
  // protocol_overhead lives in [0, 1): both ends battered.
  for (const double v : {-1e-9, -1.0, 1.0, 1.5,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    sim::WanSpec w = sim::wan_mbps(10);
    w.protocol_overhead = v;
    EXPECT_THROW(w.validate(), util::ConfigError) << "overhead " << v;
  }
  sim::WanSpec edge = sim::wan_mbps(10);
  edge.protocol_overhead = 0.0;
  EXPECT_NO_THROW(edge.validate());
  edge.protocol_overhead = 0.999999;
  EXPECT_NO_THROW(edge.validate());
}

TEST(Fuzz, ClusterSpecRejectsHostileFieldsTyped) {
  for (const double v : kHostileRates) {
    sim::ClusterSpec c = sim::cluster_pentium_myrinet();
    c.storage_backplane_Bps = v;
    EXPECT_THROW(c.validate(), util::ConfigError) << "backplane " << v;
    c = sim::cluster_pentium_myrinet();
    c.interconnect.bandwidth_Bps = v;
    EXPECT_THROW(c.validate(), util::ConfigError) << "interconnect bw " << v;
    if (v != 0.0) {
      c = sim::cluster_pentium_myrinet();
      c.interconnect.latency_s = v;
      EXPECT_THROW(c.validate(), util::ConfigError)
          << "interconnect latency " << v;
    }
  }
  for (const int v : {0, -7}) {
    sim::ClusterSpec c = sim::cluster_pentium_myrinet();
    c.max_nodes = v;
    EXPECT_THROW(c.validate(), util::ConfigError) << "max_nodes " << v;
  }
  // A hostile machine nested inside an otherwise-sane cluster still trips.
  sim::ClusterSpec nested = sim::cluster_opteron_infiniband();
  nested.machine.cpu_flops = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(nested.validate(), util::ConfigError);
}

}  // namespace
}  // namespace fgp
