#include "repository/store.h"

#include <fstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fgp::repository {

namespace fs = std::filesystem;

namespace {

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  FGP_CHECK_MSG(os.good(), "cannot open " << p << " for writing");
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  FGP_CHECK_MSG(os.good(), "short write to " << p);
}

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary | std::ios::ate);
  if (!is.good())
    throw util::SerializationError("cannot open " + p.string());
  const auto size = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (!is.good())
    throw util::SerializationError("short read from " + p.string());
  return bytes;
}

/// Reads and validates a manifest, returning its metadata and chunk count.
std::pair<DatasetMeta, std::uint64_t> read_manifest(const fs::path& dir,
                                                    const std::string& name) {
  const auto manifest_bytes = read_file(dir / "manifest.bin");
  util::ByteReader r(manifest_bytes);
  DatasetMeta meta;
  meta.name = r.get_string();
  meta.schema = r.get_string();
  meta.seed = r.get_u64();
  const std::uint64_t count = r.get_u64();
  if (meta.name != name)
    throw util::SerializationError("manifest name mismatch: expected " + name +
                                   ", found " + meta.name);
  return {std::move(meta), count};
}

}  // namespace

DatasetStore::DatasetStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

DatasetStore::DatasetStore(fs::path root, obs::TraceRecorder* trace,
                           obs::Registry* metrics)
    : root_(std::move(root)), trace_(trace), metrics_(metrics) {
  fs::create_directories(root_);
}

fs::path DatasetStore::dir_for(const std::string& name) const {
  FGP_CHECK_MSG(!name.empty() && name.find('/') == std::string::npos,
                "dataset name must be a plain identifier: '" << name << "'");
  return root_ / name;
}

void DatasetStore::save(const ChunkedDataset& ds,
                        util::ThreadPool* pool) const {
  const obs::HostSpan io_span(trace_, "store", "save " + ds.meta().name);
  const fs::path dir = dir_for(ds.meta().name);
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::ByteWriter manifest;
  manifest.put_string(ds.meta().name);
  manifest.put_string(ds.meta().schema);
  manifest.put_u64(ds.meta().seed);
  manifest.put_u64(ds.chunk_count());
  write_file(dir / "manifest.bin", manifest.bytes());

  // Chunk files are independent and their names are fixed by index, so the
  // loop may fan out over the pool; the payload streams straight from the
  // chunk to the file (no intermediate serialization buffer).
  const auto write_chunk = [&](std::size_t i) {
    const fs::path p = dir / ("chunk_" + std::to_string(i) + ".bin");
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    FGP_CHECK_MSG(os.good(), "cannot open " << p << " for writing");
    ds.chunk(i).write_to(os);
    FGP_CHECK_MSG(os.good(), "short write to " << p);
    os.close();  // flush before sizing the file
    if (metrics_ != nullptr) {
      // Integral increments: exact under concurrent chunk writes.
      metrics_->add("store.saved_chunks", 1.0);
      metrics_->add("store.saved_bytes",
                    static_cast<double>(fs::file_size(p)));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(ds.chunk_count(), write_chunk);
  } else {
    for (std::size_t i = 0; i < ds.chunk_count(); ++i) write_chunk(i);
  }
}

ChunkedDataset DatasetStore::load(const std::string& name,
                                  util::ThreadPool* pool) const {
  const obs::HostSpan io_span(trace_, "store", "load " + name);
  const fs::path dir = dir_for(name);
  auto [meta, count] = read_manifest(dir, name);

  // Each chunk lands at its manifest index, so the reads may fan out over
  // the pool; the payload streams straight into its final buffer.
  std::vector<Chunk> chunks(count);
  const auto read_chunk = [&](std::size_t i) {
    const fs::path p = dir / ("chunk_" + std::to_string(i) + ".bin");
    std::ifstream is(p, std::ios::binary);
    if (!is.good())
      throw util::SerializationError("cannot open " + p.string());
    const std::uint64_t file_size = fs::file_size(p);
    chunks[i] = Chunk::read_from(is, file_size);
    if (metrics_ != nullptr) {
      metrics_->add("store.loaded_chunks", 1.0);
      metrics_->add("store.loaded_bytes", static_cast<double>(file_size));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(count), read_chunk);
  } else {
    for (std::uint64_t i = 0; i < count; ++i)
      read_chunk(static_cast<std::size_t>(i));
  }

  ChunkedDataset ds(meta);
  for (auto& c : chunks) ds.add_chunk(std::move(c));
  return ds;
}

ChunkedDataset DatasetStore::load_streamed(const std::string& name,
                                           const StreamConfig& cfg,
                                           util::ThreadPool* pool) const {
  if (!PayloadBuffer::mmap_supported()) return load(name, pool);
  const obs::HostSpan io_span(trace_, "store", "load-streamed " + name);
  const fs::path dir = dir_for(name);
  auto [meta, count] = read_manifest(dir, name);

  // Metadata scan: only each chunk file's fixed wire header is read here
  // — 32 bytes per chunk regardless of payload size, so the scan touches
  // O(chunks) bytes where load() touches O(dataset). Entries land at
  // their manifest indices, so the scan may fan out over the pool.
  std::vector<StoreStreamSource::Entry> entries(count);
  const auto scan_chunk = [&](std::size_t i) {
    entries[i] = StoreStreamSource::read_entry(
        dir / ("chunk_" + std::to_string(i) + ".bin"));
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(count), scan_chunk);
  } else {
    for (std::uint64_t i = 0; i < count; ++i)
      scan_chunk(static_cast<std::size_t>(i));
  }

  ChunkedDataset ds(meta);
  for (const auto& e : entries)
    ds.add_chunk(Chunk::metadata_only(e.id, e.payload_bytes, e.checksum,
                                      e.virtual_scale));
  ds.attach_source(std::make_shared<const StoreStreamSource>(
      std::move(entries), cfg, metrics_));
  return ds;
}

bool DatasetStore::exists(const std::string& name) const {
  return fs::exists(dir_for(name) / "manifest.bin");
}

void DatasetStore::remove(const std::string& name) const {
  fs::remove_all(dir_for(name));
}

}  // namespace fgp::repository
