// Allocation guard for the event queue.
//
// This executable replaces the global operator new/delete with a counting
// pair (malloc/free plus a per-thread tally), so it is linked into no other
// target. It pins the queue's cost contract: once the slot arena, the near
// heap, the bucket array and the rebuild scratch have grown to a cycle's
// peak, running the same cycle again makes no heap allocation. A cycle fills
// the queue to a few thousand keys (a spill into the far tier, then a
// calendar built at the first pop), churns at that depth while cancelling
// and re-arming far timers (so calendars run out and are rebuilt, dropping
// tombstones as they go), and drains it (back to one plain heap).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"

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

constexpr int kDepth = 4000;
constexpr int kTimers = 4;
constexpr std::int64_t kTimeoutNs = 1 << 22;  // about 4 ms, past every other event
static_assert(kDepth > 4 * static_cast<int>(EventQueue::kDeep));

/// One cycle from an empty queue back to an empty queue. Delays come from a
/// fixed LCG (0 to about 1 ms), so every cycle pushes the same times.
/// Returns the number of events popped.
int cycle(EventQueue& q) {
  std::uint64_t x = 12345;
  const auto delay = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>(x >> 44);
  };
  for (int i = 0; i < kDepth; ++i) q.push(SimTime::nanos(delay()), [] {});
  EventId timers[kTimers];
  for (EventId& t : timers) t = q.push(SimTime::nanos(kTimeoutNs), [] {});
  int pops = 0;
  for (int i = 0; i < 4 * kDepth; ++i) {
    auto ev = q.pop();
    ++pops;
    const std::int64_t now = ev.time.as_nanos();
    q.push(SimTime::nanos(now + delay()), std::move(ev.action));
    EventId& timer = timers[i % kTimers];
    EXPECT_TRUE(q.cancel(timer)) << "pop " << i;
    timer = q.push(SimTime::nanos(now + kTimeoutNs), [] {});
  }
  while (!q.empty()) {
    q.pop();
    ++pops;
  }
  return pops;
}

TEST(EventQueueAlloc, WarmCycleAllocatesNothing) {
  EventQueue q;
  const std::uint64_t cold = t_allocs;
  const int first = cycle(q);
  // Proof that this binary's operator new is the one counting.
  EXPECT_GT(t_allocs - cold, 0u);

  const std::uint64_t warm = t_allocs;
  const int second = cycle(q);
  EXPECT_EQ(t_allocs - warm, 0u) << "allocations in a second, identical cycle";
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, 5 * kDepth + kTimers);
}

}  // namespace
}  // namespace tussle::sim
