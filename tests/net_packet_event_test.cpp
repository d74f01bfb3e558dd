// One row per packet-lifecycle path through Network::emit. Every row runs
// with a MemProfiler, a SpanTracer and a debug-level JSONL trace attached,
// and checks that each sink saw the path exactly once: the counter, the
// packet's modeled lifetime, the trace lines (this pins the --trace format)
// and the drop span. Every row also checks packet conservation once the
// simulator is idle.
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/mem_profile.hpp"

namespace tussle::net {
namespace {

Address addr(AsId as, std::uint32_t sub, std::uint32_t host) {
  return Address{.provider = as, .subscriber = sub, .host = host};
}

/// a -- r -- b in one AS, 10 Mb/s and 1 ms per link, so a 1000-B packet
/// serializes in 0.8 ms and a hop takes 1.8 ms. Link 0 is a--r, link 1 r--b.
struct World {
  sim::Simulator sim;
  sim::MemProfiler mem;
  sim::SpanTracer spans;
  std::ostringstream jsonl;
  Network net{sim};
  NodeId a, r, b;
  Address addr_a = addr(1, 1, 1);
  Address addr_b = addr(1, 2, 1);
  Address addr_r = addr(1, 3, 1);

  explicit World(std::size_t queue_capacity) {
    sim.set_mem_profiler(&mem);
    net.set_spans(&spans);
    sim.tracer().enable(true);
    sim.tracer().set_level(sim::TraceLevel::kDebug);
    sim.tracer().set_sink(sim::make_jsonl_sink(jsonl));
    a = net.add_node(1);
    r = net.add_node(1);
    b = net.add_node(1);
    net.connect(a, r, 10e6, sim::Duration::millis(1), QueueKind::kDropTail, queue_capacity);
    net.connect(r, b, 10e6, sim::Duration::millis(1), QueueKind::kDropTail, queue_capacity);
    net.node(a).add_address(addr_a);
    net.node(r).add_address(addr_r);
    net.node(b).add_address(addr_b);
    net.node(a).forwarding().set_default_route(0);
    net.node(r).forwarding().set_prefix_route(prefix_of(addr_a), 0);
    net.node(r).forwarding().set_prefix_route(prefix_of(addr_b), 1);
    net.node(b).forwarding().set_default_route(0);
  }

  Packet make() const {
    Packet p;
    p.src = addr_a;
    p.dst = addr_b;
    p.size_bytes = 1000;
    p.flow = 7;
    return p;
  }

  void send(Packet p) { net.node(a).originate(std::move(p)); }

  void filter_at_r(std::function<FilterDecision(const Packet&)> fn) {
    net.node(r).add_filter(PacketFilter{"box", true, std::move(fn)});
  }
};

struct Row {
  const char* name;
  sim::Counter NetCounters::*counter;  ///< the field this path moves by exactly one
  std::function<void(World&)> run;     ///< sets up the path and originates
  std::vector<std::string> lines;      ///< the exact JSONL trace
  bool dropped = false;                ///< the packet dies: one drop span
  std::size_t queue_capacity = 64;
};

// The trace lines every row shares: the packet enters link 0 at a, and r
// forwards it onto link 1.
const std::string kEnqueueA =
    R"({"t_ns":0,"level":"DEBUG","component":"net.link","event":"enqueue","uid":1,"flow":7,"link":0,"node":0,"queued":1})";
const std::string kForwardR =
    R"({"t_ns":1800000,"level":"DEBUG","component":"net.node","event":"forward","uid":1,"flow":7,"node":1,"ttl":63})";
const std::string kEnqueueR =
    R"({"t_ns":1800000,"level":"DEBUG","component":"net.link","event":"enqueue","uid":1,"flow":7,"link":1,"node":1,"queued":1})";
const std::string kDeliverB =
    R"({"t_ns":3600000,"level":"INFO","component":"net.node","event":"deliver","uid":1,"flow":7,"node":2,"latency_s":0.0036000000000000003})";
const std::string kDeliverR =
    R"({"t_ns":1800000,"level":"INFO","component":"net.node","event":"deliver","uid":1,"flow":7,"node":1,"latency_s":0.0018000000000000002})";

std::vector<Row> rows() {
  return {
      {"deliver", &NetCounters::delivered, [](World& w) { w.send(w.make()); },
       {kEnqueueA, kForwardR, kEnqueueR, kDeliverB}},
      {"mirror", &NetCounters::mirrored,
       [](World& w) {
         // The tap is r itself: the copy is delivered there, the original
         // goes on to b, and the first delivery closes the shared lifetime.
         w.filter_at_r([&w](const Packet&) { return FilterDecision::mirror(w.addr_r, "tap"); });
         w.send(w.make());
       },
       {kEnqueueA, kDeliverR, kForwardR, kEnqueueR, kDeliverB}},
      {"redirect", &NetCounters::redirected,
       [](World& w) {
         w.filter_at_r(
             [&w](const Packet&) { return FilterDecision::redirect(w.addr_r, "capture"); });
         w.send(w.make());
       },
       {kEnqueueA,
        R"({"t_ns":1800000,"level":"INFO","component":"net.node","event":"redirect","uid":1,"flow":7,"node":1})",
        kDeliverR}},
      {"tunnel-decap", &NetCounters::delivered,
       [](World& w) { w.send(w.make().encapsulate(w.addr_a, w.addr_r)); },
       // The outer packet is 40 B larger, so it reaches r 32 us later; r
       // unwraps it and sends the inner packet on without a forward line.
       {kEnqueueA,
        R"({"t_ns":1832000,"level":"DEBUG","component":"net.link","event":"enqueue","uid":1,"flow":7,"link":1,"node":1,"queued":1})",
        R"({"t_ns":3632000,"level":"INFO","component":"net.node","event":"deliver","uid":1,"flow":7,"node":2,"latency_s":0.0036320000000000002})"}},
      {"drop-filter", &NetCounters::dropped_filter,
       [](World& w) {
         w.filter_at_r([](const Packet&) { return FilterDecision::drop("censor"); });
         w.send(w.make());
       },
       {kEnqueueA,
        R"({"t_ns":1800000,"level":"INFO","component":"net.node","event":"drop","reason":"filter:censor","uid":1,"flow":7,"node":1,"disclosed":true})"},
       true},
      {"drop-ttl", &NetCounters::dropped_ttl,
       [](World& w) {
         Packet p = w.make();
         p.ttl = 0;
         w.send(std::move(p));
       },
       {kEnqueueA,
        R"({"t_ns":1800000,"level":"INFO","component":"net.node","event":"drop","reason":"ttl","uid":1,"flow":7,"node":1})"},
       true},
      {"drop-no-route", &NetCounters::dropped_no_route,
       [](World& w) {
         w.net.node(w.r).forwarding().erase_prefix_route(prefix_of(w.addr_b));
         w.send(w.make());
       },
       {kEnqueueA, kForwardR,
        R"({"t_ns":1800000,"level":"INFO","component":"net.node","event":"drop","reason":"no-route","uid":1,"flow":7,"node":1})"},
       true},
      // A zero-packet buffer: the very first enqueue overflows.
      {"drop-queue-full", &NetCounters::dropped_queue, [](World& w) { w.send(w.make()); },
       {R"({"t_ns":0,"level":"INFO","component":"net.link","event":"drop","reason":"queue-full","uid":1,"flow":7,"link":0,"node":0})"},
       true, 0},
      {"drop-link-down-at-transmit", &NetCounters::dropped_link_down,
       [](World& w) {
         w.net.link(0).set_up(false);
         w.send(w.make());
       },
       {R"({"t_ns":0,"level":"INFO","component":"net.link","event":"drop","reason":"link-down","uid":1,"flow":7,"link":0,"node":0})"},
       true},
      {"drop-link-down-mid-propagation", &NetCounters::dropped_link_down,
       [](World& w) {
         // Serialization ends at 0.8 ms and the packet would arrive at
         // 1.8 ms; the link fails in between, and the receiver reports it.
         w.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "cut"},
                        [&w] { w.net.link(0).set_up(false); });
         w.send(w.make());
       },
       {kEnqueueA,
        R"({"t_ns":1800000,"level":"INFO","component":"net.link","event":"drop","reason":"link-down","uid":1,"flow":7,"link":0,"node":1})"},
       true},
  };
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

TEST(NetPacketEvent, EachPathReachesEverySinkOnce) {
  for (const Row& row : rows()) {
    SCOPED_TRACE(row.name);
    World w(row.queue_capacity);
    row.run(w);
    w.sim.run();

    const NetCounters& c = std::as_const(w.net).counters();
    EXPECT_EQ((c.*row.counter).value(), 1);

    const auto& sites = w.mem.sites();
    ASSERT_EQ(sites.count("net.packet"), 1u);
    EXPECT_EQ(sites.at("net.packet").allocs, 1u);
    EXPECT_EQ(sites.at("net.packet").live(), 0);

    EXPECT_EQ(w.jsonl.str(), joined(row.lines));

    std::size_t drop_spans = 0;
    std::size_t packet_spans = 0;
    for (const sim::Span& s : w.spans.spans()) {
      if (s.name == "drop") ++drop_spans;
      if (s.name == "packet") {
        ++packet_spans;
        EXPECT_TRUE(s.closed);
      }
    }
    EXPECT_EQ(drop_spans, row.dropped ? 1u : 0u);
    EXPECT_EQ(packet_spans, 1u);

    const std::int64_t drops = c.dropped_filter.value() + c.dropped_ttl.value() +
                               c.dropped_no_route.value() + c.dropped_queue.value() +
                               c.dropped_link_down.value();
    EXPECT_EQ(c.originated.value() + c.mirrored.value(), c.delivered.value() + drops);
  }
}

}  // namespace
}  // namespace tussle::net
