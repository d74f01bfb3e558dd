// Allocation guard for the observer hooks.
//
// This executable replaces the global operator new/delete with a counting
// pair (malloc/free plus a per-thread tally), so it is linked into no other
// target. It pins the observers' cost contract on the serial backend: with
// the shard auditor and the scale and memory profilers attached, once their
// tables and caches have grown to a burst's peak, dispatching the same
// burst again (schedule, begin, the component calls a packet hop makes,
// packet births and deaths, end) makes no heap allocation, and a burst
// that opens thousands of new tick-or-window rows allocates only to grow
// its tables, a logarithmic number of times. One far-future event stays
// pending throughout, so the queue never empties between bursts.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/mem_profile.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"
#include "sim/simulator.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  t_allocs += 1;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Out of line, both halves: inlined into a caller, GCC pairs the malloc()
// or free() it then sees with the other operator and warns of a mismatch
// that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) { return counted_alloc(size, 0); }
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tussle::sim {
namespace {

constexpr int kBurst = 256;

// Component names on both sides of std::string's 15-character inline
// buffer: "sim.event/<component>" and the site names below are long.
const TaskTag kShort{"toy", "hop"};
const TaskTag kLong{"toy.long_component", "hop"};

struct World {
  Simulator sim;
  ShardAuditor audit;
  ScaleProfiler scale;
  MemProfiler mem;
  std::uint32_t space = 0;  ///< the packet-uid space hops draw from
  std::uint64_t next_uid = 1;
  bool packets = false;     ///< hops also originate and retire packets

  World() {
    // The set and order capture-observed attaches.
    sim.set_auditor(&audit);
    sim.set_scale_profiler(&scale);
    sim.set_mem_profiler(&mem);
    space = mem.open_packet_space();
    for (std::uint64_t n = 0; n < 8; ++n) audit.register_component("toy.node", n, n % 4);
    sim.schedule(Duration::seconds(1000), kShort, [] {});
  }

  /// One event of the burst: the calls a packet hop makes on the observers.
  void hop(int i) {
    const auto node = static_cast<std::uint64_t>(i % 8);
    const auto shard = static_cast<ShardId>(node % 4);
    audit.claim("toy.node", node, shard);
    audit.check_mutation("toy.node", node, shard, "transmit");
    audit.record_shared_access("toy.counters_with_a_long_name", "deliver");
    mem.note_hops("toy.forward", 4);
    mem.note_occupancy("toy.link_queue", static_cast<std::uint64_t>(i % 5));
    mem.count_alloc("toy.site_with_a_long_name", 64);
    mem.count_free("toy.site_with_a_long_name", 64);
    if (!packets) return;
    // A new packet each hop, retired kInFlight hops later, so the lifetime
    // table holds kInFlight packets throughout and every uid is fresh.
    constexpr std::uint64_t kInFlight = 24;
    const std::uint64_t uid = next_uid++;
    mem.packet_birth(space, uid, sim.now(), 1000);
    if (uid % 16 == 0) mem.packet_birth(space, uid, sim.now(), 1000);  // a mirrored copy
    if (uid > kInFlight) {
      const std::uint64_t done = uid - kInFlight;
      if (done % 3 == 0) {
        mem.packet_dropped(space, done, sim.now());
      } else {
        mem.packet_delivered(space, done, sim.now());
      }
      if (done % 16 == 0) mem.packet_delivered(space, done, sim.now());  // the copy's death
    }
  }

  /// A kick event at the current sim time schedules kBurst zero-delay
  /// events from inside run(); run() stops at the current time, so both
  /// bursts share one tick and one window row.
  std::size_t burst() {
    sim.schedule(Duration::zero(), kShort, [this] {
      for (int i = 0; i < kBurst; ++i) {
        sim.schedule(Duration::zero(), i % 2 == 0 ? kShort : kLong, [this, i] { hop(i); });
      }
    });
    return sim.run(sim.now());
  }

  /// Like burst(), but the `n` events run 1 µs apart, each in a lookahead
  /// window of its own (see WindowRowsGrowLogarithmically).
  std::size_t spread_burst(int n) {
    sim.schedule(Duration::zero(), kShort, [this, n] {
      for (int i = 0; i < n; ++i) {
        sim.schedule(Duration::micros(i), kShort, [this, i] { hop(i); });
      }
    });
    return sim.run(sim.now() + Duration::micros(n));
  }
};

TEST(ObserverAlloc, HooksAllocateNothingOnceWarm) {
  World w;
  ASSERT_EQ(w.burst(), static_cast<std::size_t>(kBurst) + 1);
  const std::uint64_t before = t_allocs;
  const std::size_t events = w.burst();
  const std::uint64_t allocs = t_allocs - before;
  // The kick event's own schedule (outside run()) allocates nothing either:
  // its closure fits std::function's inline buffer.
  EXPECT_EQ(events, static_cast<std::size_t>(kBurst) + 1);
  EXPECT_EQ(allocs, 0u) << "allocations dispatching the second burst of " << kBurst;
  EXPECT_EQ(w.scale.work(), 2u * (kBurst + 1));
  EXPECT_EQ(w.mem.work(), 2u * (kBurst + 1));
  EXPECT_EQ(w.audit.events_audited(), 2u * (kBurst + 1));
  EXPECT_EQ(w.sim.events_pending(), 1u);
}

TEST(ObserverAlloc, PacketLifetimesAllocateNothingOnceWarm) {
  World w;
  w.packets = true;
  ASSERT_EQ(w.burst(), static_cast<std::size_t>(kBurst) + 1);
  const std::uint64_t before = t_allocs;
  w.burst();
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_EQ(allocs, 0u) << "allocations retiring " << kBurst << " fresh packet uids";
  // Every birth counts an allocation; a mirrored copy's second birth and
  // second death leave the lifetime as the first ones set it.
  const MemProfiler::SiteStats& packets = w.mem.sites().at("net.packet");
  EXPECT_EQ(packets.allocs, 2u * kBurst + 2u * kBurst / 16);
  std::uint64_t deaths = 0;
  for (const auto* hist : {&w.mem.packet_delivered_hist(), &w.mem.packet_dropped_hist()}) {
    for (const auto& [bucket, n] : *hist) {
      (void)bucket;
      deaths += n;
    }
  }
  EXPECT_EQ(deaths, 2u * kBurst - 24u);
  EXPECT_EQ(packets.frees, deaths);
}

TEST(ObserverAlloc, WindowRowsGrowLogarithmically) {
  // A 1 µs cross-shard link makes the scale profiler's lookahead window
  // 1 µs, so each event of a spread burst opens a window row of its own.
  constexpr int kRows = 4096;
  World w;
  w.sim.register_lookahead(1, 2, Duration::micros(1));
  ASSERT_EQ(w.spread_burst(kRows), static_cast<std::size_t>(kRows) + 1);
  ASSERT_EQ(w.scale.window_ns(), 1000);
  const std::uint64_t before = t_allocs;
  const std::size_t events = w.spread_burst(kRows);
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_EQ(events, static_cast<std::size_t>(kRows) + 1);
  const auto log2_rows = static_cast<std::uint64_t>(std::bit_width(unsigned{kRows}));
  EXPECT_LE(allocs, 2 * log2_rows) << "allocations opening " << kRows << " window rows";
}

TEST(ObserverAlloc, CounterSeesAStringPastTheInlineBuffer) {
  // Proof that this binary's operator new is the one counting.
  const std::uint64_t before = t_allocs;
  std::string s(64, 'x');
  EXPECT_GE(t_allocs - before, 1u);
  EXPECT_EQ(s.size(), 64u);
}

}  // namespace
}  // namespace tussle::sim
