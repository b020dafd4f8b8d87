#include "shm/reader.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "shm/validate.hpp"
#include "testing/fault_injection.hpp"

namespace orca::shm {

std::vector<SegmentName> discover_segments(const std::string& prefix) {
  std::vector<SegmentName> out;
  if (prefix.empty()) return out;
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return out;
  const std::string want = prefix + ".";
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name(ent->d_name);
    if (name.rfind(want, 0) != 0) continue;
    const std::string rest = name.substr(want.size());
    const std::size_t dot = rest.find('.');
    const std::string pid_text =
        dot == std::string::npos ? rest : rest.substr(0, dot);
    if (pid_text.empty() ||
        pid_text.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    SegmentName seg;
    seg.name = name;
    seg.pid = std::strtoll(pid_text.c_str(), nullptr, 10);
    out.push_back(std::move(seg));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const SegmentName& a, const SegmentName& b) {
              return a.name < b.name;
            });
  return out;
}

const char* attach_error_kind_name(AttachError::Kind kind) noexcept {
  switch (kind) {
    case AttachError::Kind::kNone: return "none";
    case AttachError::Kind::kNotFound: return "not-found";
    case AttachError::Kind::kTransient: return "transient";
    case AttachError::Kind::kCorrupt: return "corrupt";
    case AttachError::Kind::kIo: return "io";
  }
  return "?";
}

namespace {

std::unique_ptr<SegmentReader> set_error(AttachError* err,
                                         AttachError::Kind kind,
                                         const std::string& text) {
  if (err != nullptr) {
    err->kind = kind;
    err->message = text;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<SegmentReader> SegmentReader::attach(const std::string& name,
                                                     AttachError* err) {
  ORCA_FAULT_POINT(kShmAttach);
  if (testing::FaultInjector::alloc_fails(testing::FaultPoint::kShmAttach)) {
    return set_error(err, AttachError::Kind::kIo, "injected attach fault");
  }
  const std::string path = "/" + name;
  // Read-only where possible: readers never need to store into the
  // segment except for the diagnostic readers_attached bump, so a
  // producer that published its segment unwritable still gets drained —
  // we just skip the bump. Try RW first (for the counter), fall back.
  bool writable = true;
  int fd = ::shm_open(path.c_str(), O_RDWR, 0);
  if (fd < 0 && (errno == EACCES || errno == EPERM || errno == EROFS)) {
    writable = false;
    fd = ::shm_open(path.c_str(), O_RDONLY, 0);
  }
  if (fd < 0) {
    const int e = errno;
    return set_error(err,
                     e == ENOENT ? AttachError::Kind::kNotFound
                                 : AttachError::Kind::kIo,
                     "shm_open failed: " + std::string(std::strerror(e)));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string text =
        "fstat failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return set_error(err, AttachError::Kind::kIo, text);
  }
  if (st.st_size < static_cast<off_t>(sizeof(SegmentHeader))) {
    ::close(fd);
    // The creator sizes the file right after shm_open(O_CREAT); a reader
    // racing that window sees a short (often zero-byte) file.
    return set_error(err, AttachError::Kind::kTransient,
                     "segment smaller than its header (mid-create?)");
  }
  const auto mapped = static_cast<std::uint64_t>(st.st_size);
  void* base = ::mmap(nullptr, mapped,
                      writable ? PROT_READ | PROT_WRITE : PROT_READ,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const std::string text =
        "mmap failed: " + std::string(std::strerror(errno));
    ::close(fd);
    return set_error(err, AttachError::Kind::kIo, text);
  }
  auto* header = static_cast<SegmentHeader*>(base);
  if (header->magic == 0 &&
      header->ready.load(std::memory_order_acquire) == 0) {
    // The creator sized the file but has not written the header yet: its
    // fresh pages still read as zero. The attach retry budget quarantines
    // a segment that never initializes.
    ::munmap(base, mapped);
    ::close(fd);
    return set_error(err, AttachError::Kind::kTransient,
                     "segment header not yet written");
  }
  if (header->magic != kMagic || header->version != kVersion) {
    // Distinguish the two for the quarantine record, but both are final.
    const std::string text = header->magic != kMagic
                                 ? "bad magic (not an ORCA segment)"
                                 : "segment version mismatch";
    ::munmap(base, mapped);
    ::close(fd);
    return set_error(err, AttachError::Kind::kCorrupt, text);
  }
  if (header->ready.load(std::memory_order_acquire) == 0) {
    ::munmap(base, mapped);
    ::close(fd);
    return set_error(err, AttachError::Kind::kTransient,
                     "segment still initializing");
  }
  // Deep validation: every derived offset bounds-checked against the
  // mapping before any cursor is created (validate.hpp).
  std::string why;
  if (!validate_segment(*header, mapped, &why)) {
    ::munmap(base, mapped);
    ::close(fd);
    return set_error(err, AttachError::Kind::kCorrupt, why);
  }
  // Close the attach/truncate race: everything above read pages that a
  // concurrent ftruncate could have pulled out from under us. Re-check
  // the file size now that the geometry is captured; shrunk means a
  // producer dying loudly — let the retry policy sort it out.
  struct stat st2 {};
  if (::fstat(fd, &st2) != 0 ||
      static_cast<std::uint64_t>(st2.st_size) < mapped) {
    ::munmap(base, mapped);
    ::close(fd);
    return set_error(err, AttachError::Kind::kTransient,
                     "segment resized during attach");
  }

  auto reader = std::unique_ptr<SegmentReader>(new SegmentReader());
  reader->name_ = name;
  reader->base_ = static_cast<const char*>(base);
  reader->mapped_bytes_ = mapped;
  reader->fd_ = fd;  // kept for revalidate(): detects later truncation
  reader->writable_ = writable;
  reader->geom_.ring_count = header->ring_count;
  reader->geom_.event_capacity = header->event_capacity;
  reader->geom_.sample_capacity = header->sample_capacity;
  reader->geom_.crash_capacity = header->crash_capacity;
  reader->geom_.event_headers_off = header->event_headers_off;
  reader->geom_.sample_headers_off = header->sample_headers_off;
  reader->geom_.event_cells_off = header->event_cells_off;
  reader->geom_.sample_cells_off = header->sample_cells_off;
  reader->geom_.telemetry_off = header->telemetry_off;
  reader->geom_.crash_off = header->crash_off;
  // Clamp the advertised heartbeat so a hostile interval cannot push the
  // liveness budget out to "never suspect me".
  reader->geom_.heartbeat_interval_ms =
      std::clamp<std::uint32_t>(header->heartbeat_interval_ms, 1, 60000);
  reader->label_.assign(header->label,
                        ::strnlen(header->label, sizeof(header->label)));
  reader->owner_pid_ = header->owner_pid;
  reader->created_ns_ = header->created_ns;
  reader->event_cursors_.resize(header->ring_count);
  reader->sample_cursors_.resize(header->ring_count);
  if (writable) {
    // Diagnostics only; nothing on the producer side ever waits on it, so
    // a reader that dies without decrementing costs nothing.
    header->readers_attached.fetch_add(1, std::memory_order_relaxed);
  }
  return reader;
}

std::unique_ptr<SegmentReader> SegmentReader::attach(const std::string& name,
                                                     std::string* error) {
  AttachError err;
  auto reader = attach(name, &err);
  if (!reader && error != nullptr) *error = err.message;
  return reader;
}

SegmentReader::~SegmentReader() {
  if (base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

bool SegmentReader::revalidate(std::string* why) const noexcept {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    if (why != nullptr) *why = "fstat on kept fd failed";
    return false;
  }
  if (static_cast<std::uint64_t>(st.st_size) < mapped_bytes_) {
    if (why != nullptr) {
      *why = "segment truncated to " + std::to_string(st.st_size) +
             " bytes (mapped " + std::to_string(mapped_bytes_) + ")";
    }
    return false;
  }
  return true;
}

std::uint64_t SegmentReader::events_published() const noexcept {
  return header()->events_published.load(std::memory_order_acquire);
}

std::uint64_t SegmentReader::samples_published() const noexcept {
  return header()->samples_published.load(std::memory_order_acquire);
}

ProducerState SegmentReader::producer_state() const noexcept {
  return static_cast<ProducerState>(
      header()->producer_state.load(std::memory_order_acquire));
}

Poll SegmentReader::poll_event(std::uint32_t ring, Record* out) noexcept {
  return poll_bank(geom_.event_headers_off, geom_.event_cells_off,
                   geom_.event_capacity, event_cursors_[ring], ring, out);
}

Poll SegmentReader::poll_sample(std::uint32_t ring, Record* out) noexcept {
  return poll_bank(geom_.sample_headers_off, geom_.sample_cells_off,
                   geom_.sample_capacity, sample_cursors_[ring], ring, out);
}

Poll SegmentReader::poll_bank(std::uint64_t headers_off,
                              std::uint64_t cells_off, std::uint32_t capacity,
                              Cursor& cur, std::uint32_t ring,
                              Record* out) noexcept {
  const RingHeader& h = *ring_header(headers_off, ring);
  // A ring nobody published to may have no tmpfs blocks behind it (the
  // exporter backs rings on demand), and a read fault would allocate one,
  // or raise SIGBUS on a full /dev/shm: leave its cells alone.
  if (cur.next == 0 && h.tail.load(std::memory_order_acquire) == 0) {
    return Poll::kEmpty;
  }
  return ring_poll(h, ring_cells(cells_off, ring, capacity), capacity - 1,
                   capacity, cur, out);
}

void SegmentReader::finalize_ring(std::uint32_t ring) noexcept {
  cursor_finalize(*ring_header(geom_.event_headers_off, ring),
                  event_cursors_[ring]);
  cursor_finalize(*ring_header(geom_.sample_headers_off, ring),
                  sample_cursors_[ring]);
}

std::uint64_t SegmentReader::total_read() const noexcept {
  std::uint64_t n = 0;
  for (const Cursor& c : event_cursors_) n += c.read;
  for (const Cursor& c : sample_cursors_) n += c.read;
  return n;
}

std::uint64_t SegmentReader::total_lost() const noexcept {
  std::uint64_t n = 0;
  for (const Cursor& c : event_cursors_) n += c.lost;
  for (const Cursor& c : sample_cursors_) n += c.lost;
  return n;
}

std::uint64_t SegmentReader::total_produced() const noexcept {
  std::uint64_t n = 0;
  for (std::uint32_t r = 0; r < geom_.ring_count; ++r) {
    n += ring_header(geom_.event_headers_off, r)
             ->tail.load(std::memory_order_acquire);
    n += ring_header(geom_.sample_headers_off, r)
             ->tail.load(std::memory_order_acquire);
  }
  return n;
}

Liveness SegmentReader::check_liveness(std::uint64_t now_ns, unsigned grace,
                                       std::uint64_t stall_deadline_ns)
    noexcept {
  const SegmentHeader* h = header();
  if (producer_state() == ProducerState::kFinalized) {
    return Liveness::kFinalized;
  }
  const std::uint32_t sense =
      h->heartbeat_sense.load(std::memory_order_acquire);
  if (last_flip_local_ns_ == 0 || sense != last_sense_) {
    last_sense_ = sense;
    last_flip_local_ns_ = now_ns;
    return Liveness::kAlive;
  }
  const std::uint64_t quiet = now_ns - last_flip_local_ns_;
  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(geom_.heartbeat_interval_ms) * 1000000ull;
  const std::uint64_t budget =
      std::max<std::uint64_t>(interval_ns * grace, 200000000ull);  // >=200ms
  const bool pid_gone =
      ::kill(static_cast<pid_t>(owner_pid_), 0) != 0 && errno == ESRCH;
  // Hard staleness deadline: a producer whose heart stopped this long ago
  // is not coming back on its own (SIGSTOP, swap thrash, wedged), even if
  // the kernel still lists the pid. The caller opts in (0 = off).
  if (stall_deadline_ns > 0 && quiet >= stall_deadline_ns) {
    return pid_gone ? Liveness::kDead : Liveness::kStalled;
  }
  if (quiet < budget) return Liveness::kAlive;
  // Pulse stopped. Only the kernel can confirm death: a SIGSTOPped or
  // swap-thrashed producer is late, not dead.
  if (pid_gone) return Liveness::kDead;
  return Liveness::kAlive;
}

MirrorSnapshot SegmentReader::telemetry_snapshot() const {
  const auto* m =
      reinterpret_cast<const TelemetryMirror*>(base_ + geom_.telemetry_off);
  MirrorSnapshot snap;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t v1 = m->version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // writer active
    const std::uint64_t nc = std::min<std::uint64_t>(
        m->counter_count.load(std::memory_order_relaxed), kMirrorCounterCap);
    const std::uint64_t ng = std::min<std::uint64_t>(
        m->gauge_count.load(std::memory_order_relaxed), kMirrorGaugeCap);
    snap.counters.assign(nc, 0);
    snap.gauges.assign(ng, 0);
    for (std::uint64_t i = 0; i < nc; ++i) {
      snap.counters[i] = m->counters[i].load(std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < ng; ++i) {
      snap.gauges[i] = m->gauges[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (m->version.load(std::memory_order_relaxed) == v1) {
      snap.torn = false;
      return snap;
    }
  }
  // A producer frozen mid-write (crashed under the seqlock) never closes
  // the version; report what we copied, marked torn.
  snap.torn = true;
  return snap;
}

CrashSalvage SegmentReader::salvage_crash() const {
  const auto* cr =
      reinterpret_cast<const CrashRegion*>(base_ + geom_.crash_off);
  const char* text = base_ + geom_.crash_off + sizeof(CrashRegion);
  CrashSalvage out;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t v1 = cr->version.load(std::memory_order_acquire);
    out.kind = cr->kind.load(std::memory_order_acquire);
    if (out.kind == kCrashEmpty) return out;
    const std::uint32_t len = std::min(
        cr->length.load(std::memory_order_acquire), geom_.crash_capacity);
    out.ns = cr->ns.load(std::memory_order_acquire);
    out.text.assign(text, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((v1 & 1) == 0 &&
        cr->version.load(std::memory_order_relaxed) == v1) {
      out.torn = false;
      return out;
    }
  }
  out.torn = true;  // producer died mid-snapshot: salvage is best-effort
  return out;
}

bool SegmentReader::unlink_segment() noexcept {
  return ::shm_unlink(("/" + name_).c_str()) == 0;
}

}  // namespace orca::shm
