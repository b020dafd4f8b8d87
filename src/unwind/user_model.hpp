/// \file user_model.hpp
/// User-model callstack reconstruction (paper Sec. IV-F).
///
/// Performance data arrives coupled to the *implementation model*: the
/// callstack captured inside an event callback runs through the collector
/// tool, the registry dispatch, and the runtime's fork machinery before it
/// reaches any user code. "Reconstructing the callstack to provide a user
/// view of the program is done offline after the application finishes"
/// (Sec. IV): this module is that offline pass. It strips the runtime and
/// collector frames, symbolizes the rest, and — when the sample carries the
/// region's outlined-procedure address — plants the pragma's source
/// location as the innermost user frame.
///
/// A profile has far fewer distinct stacks than join records, and the
/// stacks share most of their addresses, so `ProfileBuilder` counts the
/// raw stacks first and reconstructs each distinct one once, resolving
/// every address through one `SymbolMemo`.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"

namespace orca::unwind {

/// A reconstructed user-model callstack: innermost frame first.
struct UserCallstack {
  std::vector<SymbolInfo> frames;

  /// Multi-line rendering, innermost first, one frame per line.
  std::string render() const;

  /// Stable identity for aggregation: the sequence of frame addresses.
  std::vector<const void*> key() const;
};

/// symbolize() with an address → SymbolInfo memo.
///
/// Scope one memo to one offline pass (one profile), never to the
/// process: RegionRegistry entries and loaded modules can change between
/// runs, and a process-wide memo would keep serving the old answers.
class SymbolMemo {
 public:
  /// The symbol of `address`, resolved on first use only.
  const SymbolInfo& resolve(const void* address);

  /// symbolize() calls made so far: one per distinct address.
  std::size_t lookups() const noexcept { return lookups_; }

 private:
  std::unordered_map<const void*, SymbolInfo> symbols_;
  std::size_t lookups_ = 0;
};

/// Offline reconstruction of one sample.
///
/// `raw` is the stored implementation-model stack (innermost first);
/// `region_fn` is the outlined procedure of the parallel region the sample
/// belongs to (nullptr when unknown — e.g. a sample taken outside any
/// region). Runtime/collector frames are dropped; the region source (if
/// known) becomes the innermost frame, mirroring how the user wrote the
/// pragma rather than how the compiler outlined it.
UserCallstack reconstruct(std::span<const void* const> raw,
                          const void* region_fn, SymbolMemo& memo);

/// One-shot reconstruct() through a memo of its own.
UserCallstack reconstruct(const std::vector<const void*>& raw,
                          const void* region_fn = nullptr);

/// One line of a user-model callstack profile.
struct ProfileEntry {
  std::string rendered;       ///< reconstructed user-model stack
  std::uint64_t samples = 0;  ///< join records with this stack
};

/// Aggregate-first callstack profile: count records by their raw key
/// `(region_fn, frames)`, then reconstruct and render each distinct key
/// once. Keys that render alike (stacks differing only in stripped
/// runtime frames) merge into one entry, so the result equals counting
/// `reconstruct(frames, region_fn).render()` per record.
class ProfileBuilder {
 public:
  /// Count one record.
  void add(const void* region_fn, std::span<const void* const> frames);

  /// The profile, by samples descending, then rendered text ascending.
  std::vector<ProfileEntry> build(SymbolMemo& memo) const;
  std::vector<ProfileEntry> build() const;

 private:
  struct RawKeyView {
    const void* region_fn;
    std::span<const void* const> frames;
  };
  struct RawKey {
    const void* region_fn = nullptr;
    std::vector<const void*> frames;
    operator RawKeyView() const { return {region_fn, frames}; }
  };
  /// Orders keys and views alike, so add() looks up without copying.
  struct KeyLess {
    using is_transparent = void;
    bool operator()(RawKeyView a, RawKeyView b) const;
  };

  std::map<RawKey, std::uint64_t, KeyLess> counts_;
};

}  // namespace orca::unwind
