// Allocation guard for the observer hooks.
//
// This executable replaces the global operator new/delete with a counting
// pair (malloc/free plus a per-thread tally), so it is linked into no other
// target. It pins the observers' cost contract on the serial backend: with
// the shard auditor and the scale and memory profilers attached, once their
// tables and caches have grown to a burst's peak, dispatching the same
// burst again (schedule, begin, the component calls a packet hop makes,
// end) makes no heap allocation. One far-future event stays pending
// throughout, so the profilers' pending-event tables never drain and
// release.
#include <gtest/gtest.h>

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

  World() {
    // The set and order capture-observed attaches.
    sim.set_auditor(&audit);
    sim.set_scale_profiler(&scale);
    sim.set_mem_profiler(&mem);
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

TEST(ObserverAlloc, CounterSeesAStringPastTheInlineBuffer) {
  // Proof that this binary's operator new is the one counting.
  const std::uint64_t before = t_allocs;
  std::string s(64, 'x');
  EXPECT_GE(t_allocs - before, 1u);
  EXPECT_EQ(s.size(), 64u);
}

}  // namespace
}  // namespace tussle::sim
