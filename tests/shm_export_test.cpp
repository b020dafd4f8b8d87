/// Shm export layer tests (docs/FLEET.md): arm/attach handshake through a
/// real /dev/shm segment, runtime-config arming, event mirroring into the
/// rings, heartbeat + telemetry mirror + crash-snapshot freshness, clean
/// finalize-and-unlink, stale-segment hygiene — and the hostile-world
/// surface: an adversarial header-mutation corpus that attach must reject
/// without faulting, SIGBUS survival when the file shrinks under the
/// mapping, and graceful arm degradation when segment creation fails.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "shm/layout.hpp"
#include "shm/reader.hpp"
#include "shm/sigbus_guard.hpp"
#include "testing/fault_injection.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
namespace shm = orca::shm;

std::string unique_prefix(const char* tag) {
  return std::string("orcatest-") + tag + "-" + std::to_string(::getpid());
}

void wait_until(const std::function<bool()>& pred, int limit_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(limit_ms);
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void noop_region(int, void*) {}

TEST(ShmExport, ArmExportsReadableSegment) {
  const std::string prefix = unique_prefix("arm");
  shm::ExporterOptions opts;
  opts.name = shm::default_segment_name(prefix);
  opts.label = "unit-test";
  opts.ring_count = 4;
  opts.event_capacity = 64;
  opts.sample_capacity = 16;
  opts.crash_capacity = 1024;
  opts.heartbeat_ms = 5;
  ASSERT_TRUE(shm::arm(opts));
  EXPECT_TRUE(shm::export_armed());
  EXPECT_EQ(shm::armed_segment_name(), opts.name);

  shm::mirror_event(1, 7);
  shm::mirror_event(1, 8);
  shm::mirror_sample(2, 3, 99);

  const auto segs = shm::discover_segments(prefix);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].pid, static_cast<std::int64_t>(::getpid()));

  std::string err;
  auto reader = shm::SegmentReader::attach(opts.name, &err);
  ASSERT_NE(reader, nullptr) << err;
  EXPECT_EQ(reader->owner_pid(), static_cast<std::int64_t>(::getpid()));
  EXPECT_EQ(reader->label(), "unit-test");
  EXPECT_EQ(reader->ring_count(), 4u);

  shm::Record rec;
  ASSERT_EQ(reader->poll_event(1, &rec), shm::Poll::kRecord);
  EXPECT_EQ(rec.event, 7);
  EXPECT_EQ(rec.tid, 1);
  ASSERT_EQ(reader->poll_event(1, &rec), shm::Poll::kRecord);
  EXPECT_EQ(rec.event, 8);
  ASSERT_EQ(reader->poll_sample(2, &rec), shm::Poll::kRecord);
  EXPECT_EQ(rec.event, 3);
  EXPECT_EQ(rec.arg, 99u);

  // Heartbeat: the sense keeps flipping, so the producer reads alive, and
  // the rolling crash snapshot + telemetry mirror stay fresh.
  wait_until([&] {
    return reader->salvage_crash().kind == shm::kCrashSnapshot;
  });
  EXPECT_EQ(reader->check_liveness(orca::SteadyClock::now()),
            shm::Liveness::kAlive);
  const shm::CrashSalvage salvage = reader->salvage_crash();
  EXPECT_EQ(salvage.kind, shm::kCrashSnapshot);
  EXPECT_FALSE(salvage.torn);
  EXPECT_NE(salvage.text.find("events_published"), std::string::npos);

  const shm::MirrorSnapshot mirror = reader->telemetry_snapshot();
  EXPECT_FALSE(mirror.torn);
  EXPECT_FALSE(mirror.counters.empty());

  shm::disarm();
  EXPECT_FALSE(shm::export_armed());
  EXPECT_EQ(reader->producer_state(), shm::ProducerState::kFinalized);
  EXPECT_EQ(reader->check_liveness(orca::SteadyClock::now()),
            shm::Liveness::kFinalized);
  // Finalized totals are exact; drain the rest and balance the books.
  while (reader->poll_event(1, &rec) == shm::Poll::kRecord) {}
  for (std::uint32_t r = 0; r < reader->ring_count(); ++r) {
    reader->finalize_ring(r);
  }
  EXPECT_EQ(reader->total_read() + reader->total_lost(),
            reader->total_produced());
  // The name is gone (unlinked); the mapping we hold stays valid.
  EXPECT_EQ(shm::SegmentReader::attach(opts.name), nullptr);
  EXPECT_TRUE(shm::discover_segments(prefix).empty());
}

TEST(ShmExport, RefcountedArmSharesOneSegment) {
  const std::string prefix = unique_prefix("refcount");
  shm::ExporterOptions opts;
  opts.name = shm::default_segment_name(prefix);
  opts.ring_count = 2;
  opts.event_capacity = 16;
  ASSERT_TRUE(shm::arm(opts));
  const std::string first = shm::armed_segment_name();
  ASSERT_TRUE(shm::arm(opts));  // second arm: refcount only
  EXPECT_EQ(shm::armed_segment_name(), first);
  shm::disarm();
  EXPECT_TRUE(shm::export_armed()) << "first disarm must not finalize";
  shm::disarm();
  EXPECT_FALSE(shm::export_armed());
  EXPECT_TRUE(shm::discover_segments(prefix).empty());
}

TEST(ShmExport, RuntimeArmsFromConfigAndMirrorsForkJoin) {
  const std::string prefix = unique_prefix("runtime");
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.max_threads = 4;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = 256;
  cfg.shm_heartbeat_ms = 10;
  {
    Runtime rt(cfg);
    EXPECT_TRUE(shm::export_armed());
    rt.fork(&noop_region, nullptr, 2);
    rt.fork(&noop_region, nullptr, 2);

    const auto segs = shm::discover_segments(prefix);
    ASSERT_EQ(segs.size(), 1u);
    auto reader = shm::SegmentReader::attach(segs[0].name);
    ASSERT_NE(reader, nullptr);
    // Ring 0 is the master slot: both regions' FORK and JOIN live there.
    int forks = 0, joins = 0;
    shm::Record rec;
    while (reader->poll_event(0, &rec) == shm::Poll::kRecord) {
      if (rec.event == OMP_EVENT_FORK) ++forks;
      if (rec.event == OMP_EVENT_JOIN) ++joins;
    }
    EXPECT_EQ(forks, 2);
    EXPECT_EQ(joins, 2);
  }
  // Runtime destruction disarms and unlinks.
  EXPECT_FALSE(shm::export_armed());
  EXPECT_TRUE(shm::discover_segments(prefix).empty());
}

/// Bytes of tmpfs reserved for the segment `name`.
std::uint64_t allocated_bytes(const std::string& name) {
  struct stat st {};
  if (::stat(("/dev/shm/" + name).c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_blocks) * 512;
}

/// Resident bytes of this process's writable mappings of the segment
/// `name` (the exporter's side), summed from /proc/self/smaps.
std::uint64_t mapped_bytes(const std::string& name) {
  std::ifstream in("/proc/self/smaps");
  const std::string path = "/dev/shm/" + name;
  std::string line;
  bool ours = false;
  std::uint64_t kb = 0;
  while (std::getline(in, line)) {
    unsigned long lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3) {
      ours = std::strcmp(perms, "rw-s") == 0 && line.size() >= path.size() &&
             line.compare(line.size() - path.size(), path.size(), path) == 0;
    } else if (ours && line.rfind("Rss:", 0) == 0) {
      kb += std::stoull(line.substr(4));
    }
  }
  return kb * 1024;
}

/// Whether /dev/shm may back the segment with huge pages (a `huge=`
/// mount option other than never, or shmem_enabled forced). Page-granular
/// residency checks do not hold there.
bool tmpfs_huge_pages() {
  std::ifstream mounts("/proc/mounts");
  std::string dev, dir, type, options, rest;
  while (mounts >> dev >> dir >> type >> options && std::getline(mounts, rest)) {
    if (dir == "/dev/shm" && options.find("huge=") != std::string::npos &&
        options.find("huge=never") == std::string::npos) {
      return true;
    }
  }
  std::ifstream shmem("/sys/kernel/mm/transparent_hugepage/shmem_enabled");
  std::string mode;
  while (shmem >> mode) {
    if (mode == "[force]") return true;
  }
  return false;
}

/// Whether this kernel knows MADV_POPULATE_WRITE (Linux 5.14+); without
/// it the warm rings are mapped on first write instead of at arm.
bool kernel_populates() {
#ifdef MADV_POPULATE_WRITE
  const long page = ::sysconf(_SC_PAGESIZE);
  void* p = ::mmap(nullptr, page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  const bool ok = ::madvise(p, page, MADV_POPULATE_WRITE) == 0;
  ::munmap(p, page);
  return ok;
#else
  return false;
#endif
}

/// Bytes of one ring's cells, both banks.
std::uint64_t ring_bytes(const shm::Geometry& geo) {
  return (std::uint64_t{geo.event_capacity} + geo.sample_capacity) *
         sizeof(shm::RingCell);
}

// Arm reserves, and the producer maps, only the header, the ring headers,
// the team's rings, telemetry and the crash region. A cold ring has no
// blocks: its records go to ring 0 until the heartbeat backs it, so no
// publish can meet an unbacked page, and a reader that polls it never
// touches its cells.
TEST(ShmExport, ColdRingsTakeNoBlocksUntilBacked) {
  const std::string prefix = unique_prefix("lazy");
  shm::ExporterOptions opts;
  opts.name = shm::default_segment_name(prefix);
  opts.ring_count = 65;
  opts.warm_rings = 2;
  opts.event_capacity = 4096;
  opts.sample_capacity = 1024;
  opts.heartbeat_ms = 5;
  ASSERT_TRUE(shm::arm(opts));
  const shm::Geometry geo =
      shm::Geometry::compute(opts.ring_count, opts.event_capacity,
                             opts.sample_capacity, opts.crash_capacity);
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t all_cells = geo.telemetry_off - geo.event_cells_off;
  const std::uint64_t bound = geo.event_cells_off + 2 * ring_bytes(geo) +
                              (geo.total_bytes - geo.telemetry_off) +
                              4 * page;  // boundary pages of each span
  const std::uint64_t armed = allocated_bytes(opts.name);
  EXPECT_GE(armed, 2 * ring_bytes(geo));
  if (!tmpfs_huge_pages()) {
    EXPECT_LE(armed, bound);
    EXPECT_LT(armed, all_cells / 10);
  }
  if (kernel_populates()) {
    EXPECT_GE(mapped_bytes(opts.name), 2 * ring_bytes(geo));
  }

  // A reader polling every ring reads no cold ring's cells.
  auto reader = shm::SegmentReader::attach(opts.name);
  ASSERT_NE(reader, nullptr);
  shm::Record rec;
  for (std::uint32_t r = 0; r < reader->ring_count(); ++r) {
    EXPECT_EQ(reader->poll_event(r, &rec), shm::Poll::kEmpty);
    EXPECT_EQ(reader->poll_sample(r, &rec), shm::Poll::kEmpty);
  }
  EXPECT_EQ(allocated_bytes(opts.name), armed);

  // Records of the team land in its rings and take no block.
  for (int i = 0; i < 3; ++i) {
    shm::mirror_event(0, OMP_EVENT_FORK);
    shm::mirror_sample(1, 2, 5);
  }
  EXPECT_EQ(allocated_bytes(opts.name), armed);

  // A cold tid's first record goes to ring 0 and asks for its ring; the
  // heartbeat backs ring 40, and later records land there.
  shm::mirror_event(40, OMP_EVENT_JOIN);
  wait_until([&] {
    return allocated_bytes(opts.name) >= armed + ring_bytes(geo);
  });
  EXPECT_GE(allocated_bytes(opts.name), armed + ring_bytes(geo));
  for (int i = 0; i < 3; ++i) shm::mirror_event(40, OMP_EVENT_THR_BEGIN_EBAR);

  // The reader sees every record where it landed, with its tid, and the
  // books close exactly.
  shm::disarm();
  int forks = 0, samples = 0, joins = 0, barriers = 0;
  for (std::uint32_t r = 0; r < reader->ring_count(); ++r) {
    while (reader->poll_event(r, &rec) == shm::Poll::kRecord) {
      if (r == 0 && rec.event == OMP_EVENT_FORK && rec.tid == 0) ++forks;
      if (r == 0 && rec.event == OMP_EVENT_JOIN && rec.tid == 40) ++joins;
      if (r == 40 && rec.event == OMP_EVENT_THR_BEGIN_EBAR && rec.tid == 40) {
        ++barriers;
      }
    }
    while (reader->poll_sample(r, &rec) == shm::Poll::kRecord) {
      if (r == 1 && rec.event == 2 && rec.tid == 1 && rec.arg == 5) {
        ++samples;
      }
    }
    reader->finalize_ring(r);
  }
  EXPECT_EQ(forks, 3);
  EXPECT_EQ(samples, 3);
  EXPECT_EQ(joins, 1);
  EXPECT_EQ(barriers, 3);
  EXPECT_EQ(reader->total_produced(), 10u);
  EXPECT_EQ(reader->total_read(), 10u);
  EXPECT_EQ(reader->total_produced(),
            reader->total_read() + reader->total_lost());
}

// The runtime backs the rings of its num_threads team at arm; a team
// grown past that gets its new gtids' rings backed by the heartbeat,
// and their records then land in their own rings.
TEST(ShmExport, RuntimeTeamGrownPastArmGetsItsRingsBacked) {
  const std::string prefix = unique_prefix("grow");
  RuntimeConfig cfg;
  cfg.num_threads = 1;
  cfg.max_threads = 8;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = 4096;
  cfg.shm_heartbeat_ms = 5;
  Runtime rt(cfg);
  ASSERT_TRUE(shm::export_armed());
  const std::string name = shm::armed_segment_name();
  const shm::Geometry geo =
      shm::Geometry::compute(cfg.max_threads + 1, 4096,
                             shm::ExporterOptions{}.sample_capacity,
                             shm::ExporterOptions{}.crash_capacity);
  const std::uint64_t armed = allocated_bytes(name);

  rt.fork(&noop_region, nullptr, 3);  // gtids 1 and 2 join
  wait_until([&] {
    return allocated_bytes(name) >= armed + 2 * ring_bytes(geo);
  });
  EXPECT_GE(allocated_bytes(name), armed + 2 * ring_bytes(geo));
  rt.fork(&noop_region, nullptr, 3);

  auto reader = shm::SegmentReader::attach(name);
  ASSERT_NE(reader, nullptr);
  int own = 0;
  shm::Record rec;
  while (reader->poll_event(2, &rec) == shm::Poll::kRecord) {
    if (rec.tid == 2) ++own;
  }
  EXPECT_GT(own, 0) << "gtid 2's records stayed in ring 0";
}

TEST(ShmExport, DisarmedByDefault) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  ASSERT_FALSE(cfg.shm_export);
  Runtime rt(cfg);
  EXPECT_FALSE(shm::export_armed());
}

TEST(ShmExport, StaleSegmentsReaped) {
  const std::string prefix = unique_prefix("stale");
  // A leftover from a "crashed" run: owner pid far above pid_max.
  const std::string stale = prefix + ".999999999.0";
  const std::string live =
      prefix + "." + std::to_string(::getpid()) + ".0";
  for (const std::string& name : {stale, live}) {
    const int fd = ::shm_open(("/" + name).c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, 4096), 0);
    ::close(fd);
  }
  ASSERT_EQ(shm::discover_segments(prefix).size(), 2u);

  EXPECT_EQ(shm::cleanup_stale_segments(prefix), 1u);
  const auto left = shm::discover_segments(prefix);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].name, live) << "live-owner segment must survive";
  ::shm_unlink(("/" + live).c_str());
}

// --- hostile-world surface --------------------------------------------------

/// A hand-built segment with no exporter behind it: the heartbeat thread
/// of a live ShmExporter would SIGBUS (and kill the test) the moment we
/// truncate or scribble, so adversarial tests construct the bytes
/// directly and play producer by hand.
struct RawSegment {
  std::string name;
  int fd = -1;
  char* base = nullptr;
  shm::Geometry geo;
  shm::SegmentHeader* header = nullptr;
  shm::RingHeader* event_headers = nullptr;
  shm::RingCell* event_cells = nullptr;

  RawSegment(const RawSegment&) = delete;
  RawSegment& operator=(const RawSegment&) = delete;

  explicit RawSegment(const std::string& seg_name, std::uint32_t rings = 2,
                      std::uint32_t event_cap = 64,
                      std::uint32_t sample_cap = 16,
                      std::uint32_t crash_cap = 256)
      : name(seg_name) {
    geo = shm::Geometry::compute(rings, event_cap, sample_cap, crash_cap);
    fd = ::shm_open(("/" + name).c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) return;
    if (::ftruncate(fd, static_cast<off_t>(geo.total_bytes)) != 0) return;
    void* b = ::mmap(nullptr, geo.total_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    if (b == MAP_FAILED) return;
    base = static_cast<char*>(b);
    header = new (base) shm::SegmentHeader{};
    header->magic = shm::kMagic;
    header->version = shm::kVersion;
    header->header_bytes = sizeof(shm::SegmentHeader);
    header->segment_bytes = geo.total_bytes;
    header->owner_pid = static_cast<std::int64_t>(::getpid());
    header->ring_count = geo.ring_count;
    header->event_capacity = geo.event_capacity;
    header->sample_capacity = geo.sample_capacity;
    header->crash_capacity = geo.crash_capacity;
    header->event_headers_off = geo.event_headers_off;
    header->sample_headers_off = geo.sample_headers_off;
    header->event_cells_off = geo.event_cells_off;
    header->sample_cells_off = geo.sample_cells_off;
    header->telemetry_off = geo.telemetry_off;
    header->crash_off = geo.crash_off;
    std::snprintf(header->label, sizeof(header->label), "raw-segment");
    header->heartbeat_interval_ms = 5;
    event_headers = new (base + geo.event_headers_off)
        shm::RingHeader[geo.ring_count]{};
    new (base + geo.sample_headers_off) shm::RingHeader[geo.ring_count]{};
    event_cells = new (base + geo.event_cells_off)
        shm::RingCell[static_cast<std::size_t>(geo.ring_count) *
                      geo.event_capacity]{};
    new (base + geo.sample_cells_off)
        shm::RingCell[static_cast<std::size_t>(geo.ring_count) *
                      geo.sample_capacity]{};
    new (base + geo.telemetry_off) shm::TelemetryMirror{};
    new (base + geo.crash_off) shm::CrashRegion{};
    header->producer_state.store(
        static_cast<std::uint32_t>(shm::ProducerState::kActive),
        std::memory_order_release);
    header->ready.store(1, std::memory_order_release);
  }

  void push_event(std::uint32_t ring, std::int32_t event, std::int32_t tid) {
    shm::Record rec;
    rec.ns = 1000;
    rec.event = event;
    rec.tid = tid;
    shm::ring_push(event_headers[ring],
                   event_cells +
                       static_cast<std::size_t>(ring) * geo.event_capacity,
                   geo.event_capacity - 1, rec);
  }

  bool ok() const { return base != nullptr; }

  ~RawSegment() {
    if (base != nullptr) ::munmap(base, geo.total_bytes);
    if (fd >= 0) ::close(fd);
    ::shm_unlink(("/" + name).c_str());
  }
};

TEST(ShmAttackSurface, AdversarialHeaderCorpusRejectedAtAttach) {
  struct Entry {
    const char* tag;
    std::function<void(shm::SegmentHeader&)> corrupt;
    const char* expect;  // substring of the attach error
  };
  const std::vector<Entry> corpus = {
      {"ring-count-ceiling",
       [](shm::SegmentHeader& h) { h.ring_count = 1u << 20; },
       "ring_count"},
      {"ring-count-overflowing",
       [](shm::SegmentHeader& h) { h.ring_count = 0xFFFFu; },
       "exceed"},
      {"ring-count-zero", [](shm::SegmentHeader& h) { h.ring_count = 0; },
       "ring_count"},
      {"capacity-not-pow2",
       [](shm::SegmentHeader& h) { h.event_capacity = 3; },
       "power of two"},
      {"capacity-overflow-bait",
       [](shm::SegmentHeader& h) { h.sample_capacity = 1u << 30; },
       "sample"},
      {"cells-off-past-end",
       [](shm::SegmentHeader& h) {
         h.event_cells_off = h.segment_bytes + 64;
       },
       "exceed"},
      {"offset-aliases-header",
       [](shm::SegmentHeader& h) { h.telemetry_off = 8; },
       "aliases"},
      {"offset-misaligned",
       [](shm::SegmentHeader& h) { h.event_headers_off += 4; },
       "aligned"},
      {"segment-bytes-overflow",
       [](shm::SegmentHeader& h) { h.segment_bytes = ~0ull >> 1; },
       "mapped"},
      {"crash-region-overflow-bait",
       [](shm::SegmentHeader& h) {
         h.crash_off = h.segment_bytes - 4 * 16;  // aligned, region hangs off
       },
       "crash"},
      {"label-unterminated",
       [](shm::SegmentHeader& h) {
         std::memset(h.label, 'X', sizeof(h.label));
       },
       "label"},
      {"bad-magic", [](shm::SegmentHeader& h) { h.magic ^= 0xFF; }, "magic"},
      {"bad-version", [](shm::SegmentHeader& h) { h.version = 99; },
       "version"},
  };
  int index = 0;
  for (const Entry& entry : corpus) {
    RawSegment seg(unique_prefix("corpus") + "." +
                   std::to_string(::getpid()) + "." + std::to_string(index++));
    ASSERT_TRUE(seg.ok()) << entry.tag;
    entry.corrupt(*seg.header);
    shm::AttachError err;
    auto reader = shm::SegmentReader::attach(seg.name, &err);
    EXPECT_EQ(reader, nullptr) << entry.tag;
    EXPECT_EQ(err.kind, shm::AttachError::Kind::kCorrupt) << entry.tag;
    EXPECT_FALSE(err.retryable()) << entry.tag;
    EXPECT_NE(err.message.find(entry.expect), std::string::npos)
        << entry.tag << ": got \"" << err.message << "\"";
  }
}

TEST(ShmAttackSurface, TransientStatesClassifiedRetryable) {
  // Mid-initialization: valid geometry, ready still 0.
  RawSegment seg(unique_prefix("transient") + "." +
                 std::to_string(::getpid()) + ".1");
  ASSERT_TRUE(seg.ok());
  seg.header->ready.store(0, std::memory_order_release);
  shm::AttachError err;
  EXPECT_EQ(shm::SegmentReader::attach(seg.name, &err), nullptr);
  EXPECT_EQ(err.kind, shm::AttachError::Kind::kTransient);
  EXPECT_TRUE(err.retryable());

  // Sized but unwritten: the creator's ftruncate landed, its header stores
  // have not, so every byte still reads zero.
  const std::string zeroed =
      unique_prefix("transient") + "." + std::to_string(::getpid()) + ".3";
  const int zfd = ::shm_open(("/" + zeroed).c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(zfd, 0);
  ASSERT_EQ(::ftruncate(zfd, static_cast<off_t>(seg.geo.total_bytes)), 0);
  ::close(zfd);
  EXPECT_EQ(shm::SegmentReader::attach(zeroed, &err), nullptr);
  EXPECT_EQ(err.kind, shm::AttachError::Kind::kTransient) << err.message;
  EXPECT_TRUE(err.retryable());
  ::shm_unlink(("/" + zeroed).c_str());

  // Mid-create: the file exists but is shorter than the header.
  const std::string shorty =
      unique_prefix("transient") + "." + std::to_string(::getpid()) + ".2";
  const int fd = ::shm_open(("/" + shorty).c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 16), 0);
  ::close(fd);
  EXPECT_EQ(shm::SegmentReader::attach(shorty, &err), nullptr);
  EXPECT_EQ(err.kind, shm::AttachError::Kind::kTransient);
  ::shm_unlink(("/" + shorty).c_str());

  // Vanished: classified kNotFound, not retryable.
  EXPECT_EQ(shm::SegmentReader::attach(shorty + ".gone", &err), nullptr);
  EXPECT_EQ(err.kind, shm::AttachError::Kind::kNotFound);
  EXPECT_FALSE(err.retryable());
}

TEST(ShmAttackSurface, TruncationSurvivedViaSigbusGuard) {
  RawSegment seg(unique_prefix("truncate") + "." +
                 std::to_string(::getpid()) + ".1");
  ASSERT_TRUE(seg.ok());
  for (int i = 0; i < 10; ++i) seg.push_event(0, 7, 0);

  shm::AttachError err;
  auto reader = shm::SegmentReader::attach(seg.name, &err);
  ASSERT_NE(reader, nullptr) << err.message;
  EXPECT_TRUE(reader->revalidate());
  shm::Record rec;
  ASSERT_EQ(reader->poll_event(0, &rec), shm::Poll::kRecord);

  // The producer turns hostile: the file shrinks to nothing under both
  // mappings. Every page is now a SIGBUS in waiting.
  ASSERT_EQ(::ftruncate(seg.fd, 0), 0);
  std::string why;
  EXPECT_FALSE(reader->revalidate(&why));
  EXPECT_NE(why.find("truncated"), std::string::npos);

  // A guarded drain is aborted, not fatal; the guard reports the trip.
  const bool survived = shm::with_sigbus_guard([&] {
    while (reader->poll_event(0, &rec) == shm::Poll::kRecord) {}
  });
  EXPECT_FALSE(survived) << "poll should have faulted on the empty file";

  // Guards nest and the thread stays usable afterwards.
  EXPECT_TRUE(shm::with_sigbus_guard([] {}));
}

TEST(ShmAttackSurface, ArmDegradesToWarningOnInjectedFailure) {
  auto& inj = orca::testing::FaultInjector::instance();
  inj.fail_allocs(orca::testing::FaultPoint::kShmArm, 1);
  inj.arm();
  shm::ExporterOptions opts;
  opts.name = shm::default_segment_name(unique_prefix("degrade"));
  EXPECT_FALSE(shm::arm(opts));
  EXPECT_FALSE(shm::export_armed());
  inj.disarm();

  // The hosting runtime shrugs it off: construction succeeds, regions
  // run, nothing was exported.
  inj.fail_allocs(orca::testing::FaultPoint::kShmArm, 1);
  inj.arm();
  const std::string prefix = unique_prefix("degrade-rt");
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  {
    Runtime rt(cfg);
    EXPECT_FALSE(shm::export_armed());
    rt.fork(&noop_region, nullptr, 2);
  }
  inj.disarm();
  EXPECT_TRUE(shm::discover_segments(prefix).empty());
}

TEST(ShmAttackSurface, AttachSeamInjectsRetryableFailure) {
  RawSegment seg(unique_prefix("attachseam") + "." +
                 std::to_string(::getpid()) + ".1");
  ASSERT_TRUE(seg.ok());
  auto& inj = orca::testing::FaultInjector::instance();
  inj.fail_allocs(orca::testing::FaultPoint::kShmAttach, 1);
  inj.arm();
  shm::AttachError err;
  EXPECT_EQ(shm::SegmentReader::attach(seg.name, &err), nullptr);
  EXPECT_EQ(err.kind, shm::AttachError::Kind::kIo);
  EXPECT_TRUE(err.retryable());
  // Budget spent: the same attach now succeeds (what the monitor's
  // backoff loop relies on).
  EXPECT_NE(shm::SegmentReader::attach(seg.name, &err), nullptr)
      << err.message;
  inj.disarm();
}

TEST(ShmAttackSurface, ReadOnlySegmentsAttachWithoutTheBump) {
  RawSegment seg(unique_prefix("readonly") + "." +
                 std::to_string(::getpid()) + ".1");
  ASSERT_TRUE(seg.ok());
  seg.push_event(0, 7, 0);
  ASSERT_EQ(::chmod(("/dev/shm/" + seg.name).c_str(), 0400), 0);

  shm::AttachError err;
  auto reader = shm::SegmentReader::attach(seg.name, &err);
  ASSERT_NE(reader, nullptr) << err.message;
  // Root bypasses the permission bits, so the read-only fallback only
  // engages for unprivileged runs; either way the attach counter must
  // agree with writable().
  const std::uint32_t attached =
      seg.header->readers_attached.load(std::memory_order_acquire);
  if (reader->writable()) {
    EXPECT_EQ(attached, 1u);
  } else {
    EXPECT_EQ(attached, 0u) << "read-only reader must not write the bump";
  }
  // Draining needs no write access at all.
  shm::Record rec;
  EXPECT_EQ(reader->poll_event(0, &rec), shm::Poll::kRecord);
  EXPECT_EQ(rec.event, 7);
}

}  // namespace
