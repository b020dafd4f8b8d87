/// Callstack capture, symbolization, and user-model reconstruction tests
/// (the libunwind/BFD substitute of paper Sec. IV-F).
#include <execinfo.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "translate/region_registry.hpp"
#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"
#include "unwind/user_model.hpp"

namespace {

using namespace orca::unwind;

__attribute__((noinline)) Callstack capture_here() {
  return Callstack::capture();
}

__attribute__((noinline)) Callstack deeper(int depth) {
  if (depth > 0) {
    Callstack cs = deeper(depth - 1);
    // Prevent tail-call folding of the recursion.
    EXPECT_LE(cs.depth(), kMaxFrames);
    return cs;
  }
  return capture_here();
}

TEST(Backtrace, CaptureSeesCallers) {
  const Callstack cs = capture_here();
  ASSERT_GT(cs.depth(), 1u);
  // Frame 0 should be inside this test binary, not the capture machinery.
  const SymbolInfo top = symbolize(cs.frame(0));
  EXPECT_NE(top.resolution, Resolution::kUnknown);
}

TEST(Backtrace, DepthGrowsWithRecursion) {
  const Callstack shallow = deeper(0);
  const Callstack deep = deeper(10);
  EXPECT_GT(deep.depth(), shallow.depth());
}

TEST(Backtrace, SkipDropsInnermostFrames) {
  const Callstack full = Callstack::capture(0);
  const Callstack skipped = Callstack::capture(1);
  ASSERT_GT(full.depth(), 2u);
  // Skipping one frame shifts the stack by one: the two call sites differ
  // only in the frame that `skip` drops.
  EXPECT_EQ(skipped.depth() + 1, full.depth());
  for (std::size_t i = 0; i < skipped.depth(); ++i) {
    EXPECT_EQ(skipped.frame(i), full.frame(i + 1)) << "frame " << i;
  }
}

TEST(Backtrace, ToVectorCopiesFramesNotIterators) {
  // Regression: braced-init once turned this into a 2-element vector of
  // iterator addresses (stack pointers).
  const Callstack cs = capture_here();
  const auto vec = cs.to_vector();
  ASSERT_EQ(vec.size(), cs.depth());
  for (std::size_t i = 0; i < vec.size(); ++i) {
    EXPECT_EQ(vec[i], cs.frame(i));
  }
  const Callstack round = Callstack::from_frames(vec);
  EXPECT_EQ(round.depth(), cs.depth());
  EXPECT_EQ(round.frame(0), cs.frame(0));
}

TEST(Backtrace, OutOfRangeFrameIsNull) {
  const Callstack cs = capture_here();
  EXPECT_EQ(cs.frame(cs.depth()), nullptr);
  EXPECT_EQ(cs.frame(9999), nullptr);
}

// --- capture() against backtrace(3) ----------------------------------------

using CaptureFn = Callstack (*)(int);

/// The reference: backtrace(3) from inside this function, reduced to what
/// capture(skip) promises — the frames from this function's return address
/// on, truncated as `backtrace(buf, kMaxFrames)` would (its own frame takes
/// one slot), minus `skip` innermost frames. No heap use, so a signal
/// handler may call it once backtrace(3) has run outside one.
__attribute__((noinline)) Callstack backtrace_capture(int skip) {
  std::array<void*, 4 * kMaxFrames> raw{};
  const int n = ::backtrace(raw.data(), static_cast<int>(raw.size()));
  // Sanitizer runtimes intercept backtrace(3) and report their own frames
  // ahead of this one, so locate this function's return address instead of
  // assuming it is frame 1.
  const void* ret = __builtin_extract_return_addr(__builtin_return_address(0));
  int first = 0;
  while (first < n && raw[static_cast<std::size_t>(first)] != ret) ++first;
  const int last = std::min(n, first + static_cast<int>(kMaxFrames) - 1);
  const int begin = std::min(last, first + std::max(0, skip));
  const void* const* frames = raw.data();
  return Callstack::from_frames(
      {frames + begin, static_cast<std::size_t>(last - begin)});
}

struct Captures {
  Callstack got;   ///< Callstack::capture(skip)
  Callstack want;  ///< backtrace_capture(skip)
};

/// Runs capture(skip) and its reference from one indirect call site, so
/// both see the very same return address into this frame and every frame
/// above it.
__attribute__((noinline)) Captures capture_both(int skip) {
  std::array<Callstack, 2> out;
  const std::array<CaptureFn, 2> fns = {&Callstack::capture,
                                        &backtrace_capture};
  // Opaque bounds: the compiler must not peel the loop into two calls.
  const CaptureFn* fn = fns.data();
  Callstack* dst = out.data();
  std::size_t n = fns.size();
  asm volatile("" : "+r"(fn), "+r"(dst), "+r"(n));
#pragma GCC unroll 1
  for (std::size_t i = 0; i < n; ++i) dst[i] = fn[i](skip);
  return {out[0], out[1]};
}

/// Empty string when identical, else the first difference.
std::string diff(const Captures& c) {
  if (c.got.depth() != c.want.depth()) {
    return "depth " + std::to_string(c.got.depth()) + " vs backtrace " +
           std::to_string(c.want.depth());
  }
  for (std::size_t i = 0; i < c.got.depth(); ++i) {
    if (c.got.frame(i) != c.want.frame(i)) {
      return "frame " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// capture(0..3) all match backtrace(3) in the calling context.
void expect_matches_backtrace_here(const char* where) {
  for (int skip = 0; skip <= 3; ++skip) {
    const Captures c = capture_both(skip);
    if (skip == 0) {
      EXPECT_GT(c.want.depth(), 2u) << where;
    }
    EXPECT_EQ(diff(c), "") << where << ", skip " << skip;
  }
}

TEST(Backtrace, MatchesBacktraceOnMainThread) {
  expect_matches_backtrace_here("main thread, first captures");
  expect_matches_backtrace_here("main thread, repeated");
}

TEST(Backtrace, MatchesBacktraceOnStdThread) {
  std::thread t([] {
    expect_matches_backtrace_here("std::thread, first captures");
    expect_matches_backtrace_here("std::thread, repeated");
  });
  t.join();
}

struct WorkerFrame {
  std::array<Captures, 2> seen;
  bool ran = false;
};

void capture_on_worker(int, void* frame) {
  auto* f = static_cast<WorkerFrame*>(frame);
  if (orca::rt::Runtime::current().thread_num() != 1) return;
  for (Captures& c : f->seen) c = capture_both(0);
  f->ran = true;
}

TEST(Backtrace, MatchesBacktraceOnPoolWorker) {
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = 2;
  orca::rt::Runtime rt(cfg);
  orca::rt::Runtime::make_current(&rt);
  for (int region = 0; region < 3; ++region) {
    WorkerFrame f;
    rt.fork(&capture_on_worker, &f, 2);
    ASSERT_TRUE(f.ran);
    for (const Captures& c : f.seen) {
      EXPECT_GT(c.want.depth(), 2u);
      EXPECT_EQ(diff(c), "") << "region " << region;
    }
  }
  orca::rt::Runtime::make_current(nullptr);
}

std::vector<std::string> g_sort_mismatches;
std::size_t g_sort_captures = 0;

int compare_and_capture(const void* a, const void* b) {
  const Captures c = capture_both(0);
  ++g_sort_captures;
  if (const std::string d = diff(c); !d.empty()) g_sort_mismatches.push_back(d);
  const int x = *static_cast<const int*>(a);
  const int y = *static_cast<const int*>(b);
  return (x > y) - (x < y);
}

/// Two qsort call sites in one function: the comparator's stack differs
/// only in the return address into this frame.
__attribute__((noinline)) void sort_from_two_sites() {
  std::array<int, 8> first = {5, 3, 7, 1, 8, 2, 6, 4};
  std::array<int, 8> second = first;
  std::qsort(first.data(), first.size(), sizeof(int), &compare_and_capture);
  std::qsort(second.data(), second.size(), sizeof(int), &compare_and_capture);
  asm volatile("" ::: "memory");  // keep the second call a call
}

TEST(Backtrace, MatchesBacktraceUnderQsortFromTwoCallSites) {
  g_sort_mismatches.clear();
  g_sort_captures = 0;
  sort_from_two_sites();
  sort_from_two_sites();
  EXPECT_GT(g_sort_captures, 8u);
  EXPECT_TRUE(g_sort_mismatches.empty()) << g_sort_mismatches.front();
}

Captures g_handler_captures;

void capture_in_handler(int) { g_handler_captures = capture_both(0); }

TEST(Backtrace, MatchesBacktraceInSignalHandler) {
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = &capture_in_handler;
  sigemptyset(&action.sa_mask);
  (void)backtrace_capture(0);  // backtrace(3) loads libgcc on first use
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  for (int i = 0; i < 3; ++i) {
    g_handler_captures = {};
    ASSERT_EQ(std::raise(SIGUSR1), 0);
    EXPECT_GT(g_handler_captures.want.depth(), 2u);
    EXPECT_EQ(diff(g_handler_captures), "") << "signal " << i;
  }
  ::sigaction(SIGUSR1, &previous, nullptr);
}

/// Recurse `depth` frames, then capture there.
__attribute__((noinline)) Captures capture_recursing(int depth) {
  if (depth > 0) {
    Captures c = capture_recursing(depth - 1);
    asm volatile("" ::: "memory");  // no tail call
    return c;
  }
  return capture_both(0);
}

TEST(Backtrace, MatchesBacktraceBeyondMaxFrames) {
  for (int round = 0; round < 2; ++round) {
    const Captures c = capture_recursing(static_cast<int>(kMaxFrames) + 10);
    EXPECT_EQ(c.got.depth(), kMaxFrames - 1);
    EXPECT_EQ(diff(c), "") << "round " << round;
  }
}

__attribute__((noinline)) std::size_t capture_depth_at(int depth) {
  if (depth > 0) {
    const std::size_t d = capture_depth_at(depth - 1);
    asm volatile("" ::: "memory");  // no tail call
    return d;
  }
  return Callstack::capture().depth();
}

constexpr int kGuardCaptures = 100;
using GuardDepths = std::array<std::size_t, kGuardCaptures>;

/// Captures kGuardCaptures times, at depths 4..12 of one recursion in
/// turn; returns the DWARF unwinds they took. No branch depends on the
/// iteration, so every pass runs exactly the same call sites.
__attribute__((noinline)) std::uint64_t dwarf_unwinds_over_captures(
    GuardDepths* depths) {
  const std::uint64_t before = Callstack::dwarf_unwinds();
  for (int i = 0; i < kGuardCaptures; ++i) {
    (*depths)[static_cast<std::size_t>(i)] = capture_depth_at(4 + i % 9);
  }
  return Callstack::dwarf_unwinds() - before;
}

/// The second of two identical passes must not run the DWARF unwinder.
void expect_no_dwarf_unwind_after_warmup(const char* where) {
  std::array<std::uint64_t, 2> unwinds{};
  std::array<GuardDepths, 2> depths{};
  // Opaque bounds: both passes must come from the one call site below.
  std::uint64_t* out = unwinds.data();
  GuardDepths* seen = depths.data();
  std::size_t passes = unwinds.size();
  asm volatile("" : "+r"(out), "+r"(seen), "+r"(passes));
#pragma GCC unroll 1
  for (std::size_t p = 0; p < passes; ++p) {
    out[p] = dwarf_unwinds_over_captures(&seen[p]);
  }
  EXPECT_EQ(unwinds[1], 0u) << where;
  const std::size_t base = depths[0][0];
  EXPECT_GT(base, 4u) << where;
  for (const GuardDepths& pass : depths) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      EXPECT_EQ(pass[i], base + i % 9) << where << ", capture " << i;
    }
  }
}

TEST(Backtrace, SeenContextsTakeNoDwarfUnwind) {
  // Guard for the frame-pointer fast path. A build without
  // -fno-omit-frame-pointer fails here instead of silently paying for a
  // full unwind on every join.
  expect_no_dwarf_unwind_after_warmup("main thread");
  std::thread t([] { expect_no_dwarf_unwind_after_warmup("std::thread"); });
  t.join();
}

TEST(Symbolize, RegionRegistryHitIsExact) {
  const int anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &anchor, {"my_func", "my_file.cpp", 42, "parallel for"});
  const SymbolInfo info = symbolize(&anchor);
  EXPECT_EQ(info.resolution, Resolution::kRegion);
  EXPECT_EQ(info.file, "my_file.cpp");
  EXPECT_EQ(info.line, 42u);
  EXPECT_NE(info.symbol.find("parallel for"), std::string::npos);
  EXPECT_NE(info.pretty().find("my_file.cpp:42"), std::string::npos);
}

TEST(Symbolize, DynamicSymbolResolvesWithName) {
  // A libc function always has a dynamic symbol.
  const SymbolInfo info =
      symbolize(reinterpret_cast<const void*>(&std::strtol));
  EXPECT_EQ(info.resolution, Resolution::kSymbol);
  EXPECT_FALSE(info.symbol.empty());
  EXPECT_FALSE(info.module.empty());
}

TEST(Symbolize, NullAndGarbageAreSafe) {
  EXPECT_EQ(symbolize(nullptr).resolution, Resolution::kUnknown);
  const SymbolInfo garbage =
      symbolize(reinterpret_cast<const void*>(0x1000));
  // Must not crash; resolution may be module or unknown.
  EXPECT_TRUE(garbage.resolution == Resolution::kUnknown ||
              garbage.resolution == Resolution::kModule);
}

TEST(Symbolize, Demangle) {
  EXPECT_EQ(demangle("_Z3foov"), "foo()");
  EXPECT_EQ(demangle("not_mangled"), "not_mangled");
  EXPECT_EQ(demangle(""), "");
}

TEST(Symbolize, RuntimeFrameClassification) {
  SymbolInfo runtime_frame;
  runtime_frame.resolution = Resolution::kSymbol;
  runtime_frame.symbol = "orca::rt::Runtime::fork(void (*)(int, void*), void*, int)";
  EXPECT_TRUE(is_runtime_frame(runtime_frame));

  runtime_frame.symbol = "__ompc_fork";
  EXPECT_TRUE(is_runtime_frame(runtime_frame));

  SymbolInfo user_frame;
  user_frame.resolution = Resolution::kSymbol;
  user_frame.symbol = "app::solver()";
  EXPECT_FALSE(is_runtime_frame(user_frame));

  SymbolInfo region_frame;
  region_frame.resolution = Resolution::kRegion;
  region_frame.symbol = "parallel in orca::rt::something";  // region hits
  EXPECT_FALSE(is_runtime_frame(region_frame));             // never stripped
}

TEST(UserModel, StripsRuntimeFramesAndPlantsRegion) {
  // Fabricate an implementation-model stack: [runtime, user, runtime,
  // user] plus a region function known to the registry.
  const int region_anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &region_anchor, {"solver", "app.cpp", 7, "parallel"});

  // Use real resolvable addresses for the "user" frames.
  const void* user1 = reinterpret_cast<const void*>(&std::strtol);
  const void* user2 = reinterpret_cast<const void*>(&std::strtod);
  // Runtime frame: a function from orca::rt (resolves via dynamic symbols
  // thanks to -rdynamic).
  const void* rt_frame =
      reinterpret_cast<const void*>(&orca::rt::Runtime::global);

  const UserCallstack user =
      reconstruct({rt_frame, user1, rt_frame, user2}, &region_anchor);
  ASSERT_GE(user.frames.size(), 3u);
  EXPECT_EQ(user.frames[0].resolution, Resolution::kRegion);
  EXPECT_EQ(user.frames[0].file, "app.cpp");
  for (const SymbolInfo& f : user.frames) {
    EXPECT_FALSE(is_runtime_frame(f)) << f.pretty();
  }
  const std::string rendered = user.render();
  EXPECT_NE(rendered.find("app.cpp:7"), std::string::npos);
  EXPECT_EQ(user.key().size(), user.frames.size());
}

TEST(UserModel, WithoutRegionFnKeepsUserFramesOnly) {
  const void* user1 = reinterpret_cast<const void*>(&std::strtol);
  const UserCallstack user = reconstruct({user1}, nullptr);
  ASSERT_EQ(user.frames.size(), 1u);
  EXPECT_EQ(user.frames[0].address, user1);
}

TEST(UserModel, EmptyInput) {
  const UserCallstack user = reconstruct({}, nullptr);
  EXPECT_TRUE(user.frames.empty());
  EXPECT_TRUE(user.render().empty());
}

struct RawRecord {
  const void* region_fn;
  std::vector<const void*> frames;
};

/// The per-record profile: reconstruct and render every record, count by
/// text, order by samples descending then text ascending.
std::vector<ProfileEntry> naive_profile(const std::vector<RawRecord>& records) {
  std::map<std::string, std::uint64_t> by_text;
  for (const RawRecord& rec : records) {
    ++by_text[reconstruct(rec.frames, rec.region_fn).render()];
  }
  std::vector<ProfileEntry> out;
  for (const auto& [text, samples] : by_text) out.push_back({text, samples});
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileEntry& a, const ProfileEntry& b) {
                     return a.samples > b.samples;
                   });
  return out;
}

void expect_same_profile(const std::vector<ProfileEntry>& got,
                         const std::vector<ProfileEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rendered, want[i].rendered) << "entry " << i;
    EXPECT_EQ(got[i].samples, want[i].samples) << "entry " << i;
  }
}

TEST(UserModel, AggregateFirstProfileEqualsPerRecordProfile) {
  static const int region_a = 0;
  static const int region_b = 0;
  auto& registry = orca::translate::RegionRegistry::instance();
  registry.add(&region_a, {"solve_a", "profile_a.cpp", 11, "parallel for"});
  registry.add(&region_b, {"solve_b", "profile_b.cpp", 22, "parallel"});

  const void* user1 = reinterpret_cast<const void*>(&std::strtol);
  const void* user2 = reinterpret_cast<const void*>(&std::strtod);
  const void* rt1 = reinterpret_cast<const void*>(&orca::rt::Runtime::global);
  const void* rt2 =
      reinterpret_cast<const void*>(&orca::rt::Runtime::make_current);

  const std::vector<RawRecord> records = {
      // Repeated stacks.
      {&region_a, {rt1, user1, user2}},
      {&region_a, {rt1, user1, user2}},
      {&region_a, {rt1, user1, user2}},
      // Differs from the above only in runtime frames: same entry.
      {&region_a, {rt2, rt1, user1, rt2, user2}},
      {&region_a, {user1, user2}},
      // Same frames, another region; and no region at all.
      {&region_b, {rt1, user1, user2}},
      {nullptr, {rt1, user1, user2}},
      {nullptr, {rt1, user1, user2}},
      {nullptr, {user2, user1}},
      // Empty frame lists, with and without a region.
      {nullptr, {}},
      {&region_b, {}},
      {&region_b, {}},
  };

  ProfileBuilder builder;
  std::set<const void*> addresses;
  for (const RawRecord& rec : records) {
    builder.add(rec.region_fn, rec.frames);
    if (rec.region_fn != nullptr) addresses.insert(rec.region_fn);
    addresses.insert(rec.frames.begin(), rec.frames.end());
  }

  SymbolMemo memo;
  const std::vector<ProfileEntry> profile = builder.build(memo);
  expect_same_profile(profile, naive_profile(records));
  // Eight raw keys, six user views: the runtime-frame variants merged.
  ASSERT_EQ(profile.size(), 6u);
  EXPECT_EQ(profile[0].samples, 5u);
  // Every distinct address was symbolized exactly once.
  EXPECT_EQ(memo.lookups(), addresses.size());
  (void)builder.build(memo);
  EXPECT_EQ(memo.lookups(), addresses.size());
}

TEST(UserModel, ProfileTiesPastSixteenEntriesSortByText) {
  // More entries than std::sort insertion-sorts outright (16), most of
  // them tied: ties must still come out in text order.
  constexpr int kContexts = 40;
  static const std::array<int, kContexts> anchors{};
  auto& registry = orca::translate::RegionRegistry::instance();
  std::vector<RawRecord> records;
  for (int i = 0; i < kContexts; ++i) {
    // Register in one order, add in another, so neither address nor
    // insertion order matches text order.
    const int line = 100 + (i * 17) % kContexts;
    registry.add(&anchors[i], {"tie_fn", "ties.cpp",
                               static_cast<unsigned>(line), "parallel"});
    const int copies = (i % 7 == 0) ? 3 : 2;
    for (int c = 0; c < copies; ++c) records.push_back({&anchors[i], {}});
  }
  ProfileBuilder builder;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    builder.add(it->region_fn, it->frames);
  }
  const std::vector<ProfileEntry> profile = builder.build();
  ASSERT_EQ(profile.size(), static_cast<std::size_t>(kContexts));
  for (std::size_t i = 1; i < profile.size(); ++i) {
    const ProfileEntry& a = profile[i - 1];
    const ProfileEntry& b = profile[i];
    EXPECT_TRUE(a.samples > b.samples ||
                (a.samples == b.samples && a.rendered < b.rendered))
        << "entries " << i - 1 << " and " << i << ":\n"
        << a.rendered << b.rendered;
  }
  expect_same_profile(profile, naive_profile(records));
}

}  // namespace
