#include "unwind/user_model.hpp"

#include <algorithm>

#include "common/strutil.hpp"
#include "translate/region_registry.hpp"

namespace orca::unwind {

std::string UserCallstack::render() const {
  std::string out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out += strfmt("  #%-2zu %s\n", i, frames[i].pretty().c_str());
  }
  return out;
}

std::vector<const void*> UserCallstack::key() const {
  std::vector<const void*> k;
  k.reserve(frames.size());
  for (const SymbolInfo& f : frames) k.push_back(f.address);
  return k;
}

const SymbolInfo& SymbolMemo::resolve(const void* address) {
  auto [it, inserted] = symbols_.try_emplace(address);
  if (inserted) {
    it->second = symbolize(address);
    ++lookups_;
  }
  return it->second;
}

UserCallstack reconstruct(std::span<const void* const> raw,
                          const void* region_fn, SymbolMemo& memo) {
  UserCallstack out;

  if (region_fn != nullptr) {
    // The pragma's own frame: what the user sees instead of `__ompdo_*`.
    const SymbolInfo& region = memo.resolve(region_fn);
    if (region.resolution == Resolution::kRegion) {
      out.frames.push_back(region);
    }
  }

  for (const void* ip : raw) {
    const SymbolInfo& info = memo.resolve(ip);
    if (is_runtime_frame(info)) continue;  // implementation-model noise
    if (info.resolution == Resolution::kRegion &&
        !out.frames.empty() &&
        out.frames.front().address == info.address) {
      continue;  // the region frame was already planted explicitly
    }
    out.frames.push_back(info);
  }
  return out;
}

UserCallstack reconstruct(const std::vector<const void*>& raw,
                          const void* region_fn) {
  SymbolMemo memo;
  return reconstruct(raw, region_fn, memo);
}

bool ProfileBuilder::KeyLess::operator()(RawKeyView a, RawKeyView b) const {
  if (a.region_fn != b.region_fn) {
    return std::less<const void*>()(a.region_fn, b.region_fn);
  }
  return std::lexicographical_compare(a.frames.begin(), a.frames.end(),
                                      b.frames.begin(), b.frames.end(),
                                      std::less<const void*>());
}

void ProfileBuilder::add(const void* region_fn,
                         std::span<const void* const> frames) {
  const RawKeyView view{region_fn, frames};
  auto it = counts_.find(view);
  if (it == counts_.end()) {
    it = counts_
             .emplace(RawKey{region_fn, {frames.begin(), frames.end()}}, 0)
             .first;
  }
  ++it->second;
}

std::vector<ProfileEntry> ProfileBuilder::build(SymbolMemo& memo) const {
  std::map<std::string, std::uint64_t> by_text;
  for (const auto& [key, samples] : counts_) {
    by_text[reconstruct(key.frames, key.region_fn, memo).render()] += samples;
  }
  std::vector<ProfileEntry> out;
  out.reserve(by_text.size());
  for (const auto& [rendered, samples] : by_text) {
    out.push_back({rendered, samples});
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.rendered < b.rendered;
            });
  return out;
}

std::vector<ProfileEntry> ProfileBuilder::build() const {
  SymbolMemo memo;
  return build(memo);
}

}  // namespace orca::unwind
