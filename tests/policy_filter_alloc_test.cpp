// Allocation guard for the compiled packet filter.
//
// This executable replaces the global operator new/delete with a counting
// pair (malloc/free plus a per-thread tally), so it is linked into no other
// target. It pins the filter's cost contract: a call that accepts the packet
// makes no heap allocation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "policy/packet_adapter.hpp"

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

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
// Out of line: inlined into a caller, GCC at -O1 or -Os pairs the caller's
// operator new with this free() and warns of a mismatch that is not there.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tussle::policy {
namespace {

/// The ISP filter of the benchmark's aimd-middlebox workload: two rules a
/// web flow never matches, so every call runs a full evaluation.
net::PacketFilter isp_filter() {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("no-p2p", Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("no-oversize", Effect::kDeny, "size > 9000 and not encrypted", "economics");
  return make_packet_filter("isp", /*disclosed=*/true, std::move(ps));
}

net::Packet web_packet() {
  net::Packet p;
  p.src = net::Address{.provider = 1, .subscriber = 1, .host = 5};
  p.dst = net::Address{.provider = 2, .subscriber = 1, .host = 9};
  p.proto = net::AppProto::kWeb;
  p.size_bytes = 1000;
  return p;
}

TEST(PolicyFilterAlloc, AcceptingCallAllocatesNothing) {
  const net::PacketFilter f = isp_filter();
  const net::Packet p = web_packet();
  ASSERT_EQ(f.fn(p).action, net::FilterAction::kAccept);
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < 1000; ++i) {
    if (f.fn(p).action != net::FilterAction::kAccept) FAIL() << "call " << i << " did not accept";
  }
  EXPECT_EQ(t_allocs - before, 0u) << "allocations in 1000 accepting calls";
}

TEST(PolicyFilterAlloc, LongStringLiteralsAreNotCopied) {
  // A literal too long for the small-string buffer would allocate if the
  // evaluator copied it.
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("no-exotic", Effect::kDeny, "proto in ['a-protocol-name-past-sso', 'p2p']");
  ps.add("no-exotic-tos", Effect::kDeny, "tos == 'a-service-class-past-sso'");
  const net::PacketFilter f = make_packet_filter("isp", /*disclosed=*/true, std::move(ps));
  const net::Packet p = web_packet();
  ASSERT_EQ(f.fn(p).action, net::FilterAction::kAccept);
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < 1000; ++i) f.fn(p);
  EXPECT_EQ(t_allocs - before, 0u) << "allocations in 1000 accepting calls";
}

TEST(PolicyFilterAlloc, CounterSeesTheReferencePath) {
  // The name-keyed context allocates a map node per attribute: proof that
  // this binary's operator new is the one counting.
  const std::uint64_t before = t_allocs;
  const Context ctx = context_for_packet(web_packet());
  EXPECT_GE(t_allocs - before, 12u);
  EXPECT_TRUE(ctx.has("proto"));
}

}  // namespace
}  // namespace tussle::policy
