// Allocation guard for the packet hop.
//
// This executable replaces the global operator new/delete with a counting
// pair (malloc/free plus a per-thread tally), so it is linked into no other
// target. It pins the hop's cost contract on the serial backend: once a
// link's queue, the wire pool and the event queue have grown to a burst's
// peak, forwarding the same burst again (enqueue, serialize, propagate,
// receive, deliver) makes no heap allocation. And a link that only ever
// finds itself idle passes every packet straight to the wire, so its queue
// never allocates a ring.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "net/network.hpp"

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

namespace tussle::net {
namespace {

constexpr int kBurst = 96;

/// A 3-node chain a -> b -> c. The first link is the bottleneck, so a burst
/// backs up in its queue (and, drop-tail, overflows it); the second link
/// carries the packets on one at a time.
struct Chain {
  sim::Simulator sim;
  Network net{sim};
  NodeId a = net.add_node(1);
  NodeId b = net.add_node(1);
  NodeId c = net.add_node(1);
  Address dst{.provider = 1, .subscriber = 3, .host = 1};

  explicit Chain(QueueKind kind) {
    net.connect(a, b, 1e6, sim::Duration::micros(200), kind, 64);
    net.connect(b, c, 1e8, sim::Duration::micros(300), kind, 64);
    net.node(c).add_address(dst);
    net.node(a).forwarding().set_default_route(0);
    net.node(b).forwarding().set_default_route(1);
  }

  /// Schedules kBurst originations at a, all at the same instant, cycling
  /// through the three service classes. Scheduling allocates each event's
  /// closure here, outside run().
  void schedule_burst() {
    for (int i = 0; i < kBurst; ++i) {
      Packet p;
      p.dst = dst;
      p.tos = static_cast<ServiceClass>(i % 3);
      p.size_bytes = 500;
      sim.schedule(sim::Duration::millis(1), [this, p] { net.node(a).originate(p); });
    }
  }

  std::int64_t accounted() const {
    const NetCounters& k = net.counters();
    return k.delivered.value() + k.dropped_queue.value();
  }
};

void expect_allocation_free_second_burst(QueueKind kind) {
  Chain w(kind);
  w.schedule_burst();
  w.sim.run();
  ASSERT_EQ(w.accounted(), kBurst);
  ASSERT_GT(w.net.counters().delivered.value(), 64);

  w.schedule_burst();
  const std::uint64_t before = t_allocs;
  w.sim.run();
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_EQ(w.accounted(), 2 * kBurst);
  EXPECT_EQ(w.net.packets_on_wire(), 0);
  EXPECT_EQ(allocs, 0u) << "allocations forwarding the second burst of " << kBurst;
}

TEST(NetHopAlloc, DropTailHopsAllocateNothingOnceWarm) {
  expect_allocation_free_second_burst(QueueKind::kDropTail);
}

TEST(NetHopAlloc, PriorityHopsAllocateNothingOnceWarm) {
  expect_allocation_free_second_burst(QueueKind::kPriority);
}

TEST(NetHopAlloc, PassThroughLinkNeverAllocatesARing) {
  // a reaches b over link 0 and c over link 1. Both phases send the same
  // packets one at a time, 1 ms apart, each finding its link idle. The
  // first phase warms the wire pool and the event queue; the second runs
  // over link 1, which no packet has crossed yet.
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_node(1);
  const NodeId b = net.add_node(1);
  const NodeId c = net.add_node(1);
  net.connect(a, b, 1e8, sim::Duration::micros(100));
  net.connect(a, c, 1e8, sim::Duration::micros(100));
  const Address at_b{.provider = 1, .subscriber = 2, .host = 1};
  const Address at_c{.provider = 1, .subscriber = 3, .host = 1};
  net.node(b).add_address(at_b);
  net.node(c).add_address(at_c);
  net.node(a).forwarding().set_prefix_route(prefix_of(at_b), 0);
  net.node(a).forwarding().set_prefix_route(prefix_of(at_c), 1);
  auto schedule_singles = [&](Address to) {
    for (int i = 0; i < kBurst; ++i) {
      Packet p;
      p.dst = to;
      sim.schedule(sim::Duration::millis(i + 1), [&net, a, p] { net.node(a).originate(p); });
    }
  };

  schedule_singles(at_b);
  sim.run();
  ASSERT_EQ(net.counters().delivered.value(), kBurst);

  schedule_singles(at_c);
  const std::uint64_t before = t_allocs;
  sim.run();
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_EQ(net.counters().delivered.value(), 2 * kBurst);
  EXPECT_EQ(net.link(1).tx_packets(a), static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(allocs, 0u) << "allocations sending " << kBurst << " packets over an idle link";
}

TEST(NetHopAlloc, CounterSeesAPacketCapture) {
  // A closure holding a whole Packet is too big for std::function's inline
  // buffer: proof that this binary's operator new is the one counting.
  const std::uint64_t before = t_allocs;
  std::function<void()> f = [p = Packet{}] { (void)p; };
  EXPECT_GE(t_allocs - before, 1u);
}

}  // namespace
}  // namespace tussle::net
