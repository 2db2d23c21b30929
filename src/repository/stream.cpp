#include "repository/stream.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/serial.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define FGP_HAVE_STREAM_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FGP_HAVE_STREAM_MMAP 0
#endif

namespace fgp::repository {

namespace {

std::size_t page_size() {
#if FGP_HAVE_STREAM_MMAP
  const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : std::size_t{4096};
#else
  return std::size_t{4096};
#endif
}

}  // namespace

WindowPool::Window::~Window() {
#if FGP_HAVE_STREAM_MMAP
  // A read-only private file mapping has no copy-on-write pages, so
  // munmap alone drops every page-table entry (DESIGN.md §15).
  if (base_ != nullptr) ::munmap(base_, length_);
#endif
}

WindowPool::WindowPool(StreamConfig cfg, obs::Registry* metrics)
    : cfg_(cfg), metrics_(metrics) {
  FGP_CHECK_MSG(cfg_.budget_bytes > 0, "stream budget_bytes must be positive");
  FGP_CHECK_MSG(cfg_.window_bytes > 0, "stream window_bytes must be positive");
  // mmap offsets must be page-aligned, so windows span whole pages.
  const std::size_t ps = page_size();
  cfg_.window_bytes = ((cfg_.window_bytes + ps - 1) / ps) * ps;
}

std::size_t WindowPool::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

#if FGP_HAVE_STREAM_MMAP

std::shared_ptr<const WindowPool::Window> WindowPool::acquire(
    std::size_t chunk_index, const std::filesystem::path& path,
    std::uint64_t expected_file_size, std::size_t window_index) {
  const Key key{chunk_index, window_index};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return lru_.front().window;
    }
  }

  // A miss opens, re-stats and maps the file without the lock, so hits
  // and other windows' misses never wait on this one's syscalls.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw util::SerializationError("cannot open " + path.string() +
                                   " for windowed mapping");
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw util::SerializationError("cannot stat " + path.string());
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size != expected_file_size) {
    // The file changed under the stream (truncated mid-window, replaced,
    // grown): mapping on would risk SIGBUS on a vanished page, so fail
    // with the same typed error every other corruption path uses.
    ::close(fd);
    throw util::SerializationError(
        path.string() + " changed size under the stream (expected " +
        std::to_string(expected_file_size) + " bytes, found " +
        std::to_string(file_size) + ")");
  }
  const std::uint64_t offset =
      static_cast<std::uint64_t>(window_index) * cfg_.window_bytes;
  FGP_CHECK_MSG(offset < file_size, "window " << window_index
                                              << " beyond end of "
                                              << path.string());
  const auto length = static_cast<std::size_t>(
      std::min<std::uint64_t>(cfg_.window_bytes, file_size - offset));
  void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<::off_t>(offset));
  ::close(fd);
  if (base == MAP_FAILED)
    throw util::SerializationError("mmap failed for window " +
                                   std::to_string(window_index) + " of " +
                                   path.string());
  ::madvise(base, length, MADV_WILLNEED);
  auto mapped = std::make_shared<const Window>(base, length);

  // Windows leaving the pool are dropped after the lock is released, so
  // the munmap of a last reference runs unlocked too.
  std::vector<std::shared_ptr<const Window>> dropped;
  std::shared_ptr<const Window> out;
  std::size_t recycles = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      // Another thread mapped this window meanwhile: serve theirs.
      lru_.splice(lru_.begin(), lru_, it->second);
      dropped.push_back(std::move(mapped));
    } else {
      lru_.push_front(Slot{key, std::move(mapped)});
      index_[key] = lru_.begin();
      resident_bytes_ += length;
      // Hard budget: drop least-recently-used windows until back under
      // it. The just-mapped front window always survives its own
      // acquisition; a dropped window's mapping lives on while any chunk
      // view borrows it.
      while (resident_bytes_ > cfg_.budget_bytes && lru_.size() > 1) {
        Slot& victim = lru_.back();
        resident_bytes_ -= victim.window->length();
        index_.erase(victim.key);
        dropped.push_back(std::move(victim.window));
        lru_.pop_back();
        ++recycles;
      }
    }
    out = lru_.front().window;
  }
  if (metrics_ != nullptr) {
    metrics_->add("store.window_maps", 1.0, obs::Domain::Host);
    if (recycles > 0)
      metrics_->add("store.window_recycles", static_cast<double>(recycles),
                    obs::Domain::Host);
  }
  return out;
}

#else

std::shared_ptr<const WindowPool::Window> WindowPool::acquire(
    std::size_t, const std::filesystem::path& path, std::uint64_t,
    std::size_t) {
  throw util::SerializationError("no mmap support on this platform for " +
                                 path.string());
}

#endif

StoreStreamSource::Entry StoreStreamSource::read_entry(
    const std::filesystem::path& path) {
  std::error_code ec;
  const std::uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec)
    throw util::SerializationError("cannot stat " + path.string() + ": " +
                                   ec.message());
  if (file_size < Chunk::kWireHeaderBytes)
    throw util::SerializationError("truncated chunk file " + path.string());
  std::ifstream is(path, std::ios::binary);
  if (!is.good())
    throw util::SerializationError("cannot open " + path.string());
  std::uint8_t header[Chunk::kWireHeaderBytes];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!is.good())
    throw util::SerializationError("truncated chunk stream: header");
  util::ByteReader hr(header, sizeof(header));
  Entry e;
  e.path = path;
  e.file_size = file_size;
  e.id = hr.get_u64();
  e.virtual_scale = hr.get_f64();
  e.checksum = hr.get_u64();
  e.payload_bytes = hr.get_u64();
  if (e.virtual_scale <= 0.0)
    throw util::SerializationError("chunk file " + path.string() +
                                   ": non-positive virtual scale");
  if (e.payload_bytes > file_size - Chunk::kWireHeaderBytes)
    throw util::SerializationError(
        "chunk " + std::to_string(e.id) + ": payload length " +
        std::to_string(e.payload_bytes) + " exceeds file " + path.string());
  return e;
}

StoreStreamSource::StoreStreamSource(std::vector<Entry> entries,
                                     StreamConfig cfg, obs::Registry* metrics)
    : entries_(std::move(entries)), metrics_(metrics), pool_(cfg, metrics) {}

Chunk StoreStreamSource::fetch(std::size_t index) const {
  const Entry& e = entries_.at(index);
  const std::uint64_t n = e.payload_bytes;
  const std::size_t window_bytes = pool_.config().window_bytes;

  std::shared_ptr<const PayloadBuffer> payload;
  if (n == 0) {
    payload = PayloadBuffer::from_bytes({});
  } else {
    // Payload bytes live at [32, 32 + n) of the file; window w spans
    // [w * window_bytes, ...). The payload always starts inside window 0
    // (the header is far smaller than a page).
    const std::size_t last_window =
        static_cast<std::size_t>((Chunk::kWireHeaderBytes + n - 1) /
                                 window_bytes);
    if (last_window == 0) {
      // Zero-copy: the view borrows the window's mapping and keeps it
      // alive past any pool eviction.
      const auto w = pool_.acquire(index, e.path, e.file_size, 0);
      payload = PayloadBuffer::from_view(
          w, w->data() + Chunk::kWireHeaderBytes,
          static_cast<std::size_t>(n));
    } else {
      // The payload straddles window boundaries (window smaller than the
      // chunk): stitch it window by window into a heap slab. Only one
      // window needs to be held at a time, so this stays correct under
      // any budget.
      std::vector<std::uint8_t> stitched(static_cast<std::size_t>(n));
      for (std::size_t wi = 0; wi <= last_window; ++wi) {
        const auto w = pool_.acquire(index, e.path, e.file_size, wi);
        const std::uint64_t win_begin =
            static_cast<std::uint64_t>(wi) * window_bytes;
        const std::uint64_t copy_begin =
            std::max<std::uint64_t>(win_begin, Chunk::kWireHeaderBytes);
        const std::uint64_t copy_end = std::min<std::uint64_t>(
            win_begin + w->length(), Chunk::kWireHeaderBytes + n);
        FGP_CHECK_MSG(copy_end > copy_begin,
                      "window " << wi << " of " << e.path.string()
                                << " contributes no payload bytes");
        std::memcpy(stitched.data() + (copy_begin - Chunk::kWireHeaderBytes),
                    w->data() + (copy_begin - win_begin),
                    static_cast<std::size_t>(copy_end - copy_begin));
      }
      payload = PayloadBuffer::from_bytes(std::move(stitched));
      if (metrics_ != nullptr) metrics_->add("store.stitched_chunks", 1.0);
    }
  }

  Chunk c(e.id, std::move(payload), e.virtual_scale);
  if (c.checksum() != e.checksum)
    throw util::SerializationError("chunk " + std::to_string(e.id) +
                                   ": checksum mismatch (corrupted payload)");
  // Integral increments: the total is fixed by the fetch sequence, so the
  // deterministic export is byte-identical at any pool size.
  if (metrics_ != nullptr)
    metrics_->add("store.windowed_bytes", static_cast<double>(n));
  return c;
}

}  // namespace fgp::repository
