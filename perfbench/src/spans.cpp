#include "spans.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.hpp"

namespace perfbench::spans {
namespace {

struct Buffer {
  std::uint16_t thread = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_pass{0};

// Buffers outlive their threads (MiniMPI rank threads end with each pass),
// so the registry owns them; a thread only caches its own pointer.
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    std::scoped_lock lk(g_mu);
    owned->thread = static_cast<std::uint16_t>(g_buffers.size());
    buffer = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t new_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept { return orca::SteadyClock::now(); }

void record(Span span) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  span.thread = buffer.thread;
  buffer.spans.push_back(span);
}

void set_current_pass(std::uint64_t id) noexcept {
  g_pass.store(id, std::memory_order_relaxed);
}

std::uint64_t current_pass() noexcept {
  return g_pass.load(std::memory_order_relaxed);
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  std::scoped_lock lk(g_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Span>& s = buffer->spans;
    if (!s.empty() && std::fwrite(s.data(), sizeof(Span), s.size(), f) !=
                          s.size()) {
      ok = false;
    }
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench::spans
