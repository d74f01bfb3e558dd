#include "apps/transport.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "routing/link_state.hpp"

namespace tussle::apps {
namespace {

using net::Address;
using net::NodeId;

/// Dumbbell with addressed endpoints and routes.
struct Fixture {
  sim::Simulator sim{37};
  net::Network net{sim};
  net::Dumbbell d;
  std::vector<Address> src_addrs;
  std::vector<Address> sink_addrs;
  std::vector<std::shared_ptr<AppMux>> src_muxes;
  std::vector<std::shared_ptr<AppMux>> sink_muxes;

  explicit Fixture(double bottleneck_bps = 4e6, std::size_t pairs = 2) {
    net::LinkSpec edge;
    edge.bandwidth_bps = 100e6;
    edge.propagation = sim::Duration::millis(1);
    net::LinkSpec bottleneck;
    bottleneck.bandwidth_bps = bottleneck_bps;
    bottleneck.propagation = sim::Duration::millis(10);
    bottleneck.queue_capacity = 32;
    d = net::build_dumbbell(net, pairs, edge, bottleneck);
    std::uint32_t sub = 0;
    std::vector<NodeId> all = {d.left_router, d.right_router};
    auto addr_of = [&](NodeId n) {
      Address a{.provider = 1, .subscriber = sub++, .host = 1};
      net.node(n).add_address(a);
      all.push_back(n);
      return a;
    };
    addr_of(d.left_router);
    all.pop_back();  // routers already in `all`
    addr_of(d.right_router);
    all.pop_back();
    for (NodeId n : d.sources) {
      src_addrs.push_back(addr_of(n));
      src_muxes.push_back(AppMux::install(net.node(n)));
    }
    for (NodeId n : d.sinks) {
      sink_addrs.push_back(addr_of(n));
      sink_muxes.push_back(AppMux::install(net.node(n)));
    }
    routing::LinkState ls(net);
    ls.install_routes(all);
  }
};

TEST(AimdFlow, CompletesTransferReliably) {
  Fixture f;
  FlowSink sink(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  AimdConfig cfg;
  cfg.total_segments = 100;
  AimdFlow flow(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
                net::AppProto::kWeb, 1, cfg);
  flow.start();
  f.sim.run();
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(sink.segments_received(), 100u);
  EXPECT_GT(flow.goodput_bps(), 0.0);
}

TEST(AimdFlow, SurvivesQueueLossViaRetransmission) {
  // Tiny bottleneck queue forces drops; Go-Back-N must still complete.
  Fixture f(/*bottleneck_bps=*/1e6);
  FlowSink sink(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  AimdConfig cfg;
  cfg.total_segments = 150;
  cfg.initial_ssthresh = 1000;  // slow-start straight into the wall
  AimdFlow flow(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
                net::AppProto::kWeb, 1, cfg);
  flow.start();
  f.sim.run();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.timeouts(), 0u);
  EXPECT_GT(flow.retransmissions(), 0u);
  EXPECT_EQ(sink.segments_received(), 150u);
}

TEST(AimdFlow, GoodputBoundedByBottleneck) {
  Fixture f(/*bottleneck_bps=*/2e6);
  FlowSink sink(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  AimdConfig cfg;
  cfg.total_segments = 300;
  AimdFlow flow(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
                net::AppProto::kWeb, 1, cfg);
  flow.start();
  f.sim.run();
  ASSERT_TRUE(flow.finished());
  // bytes/s ≤ 2e6/8 plus a little slack for header-free accounting.
  EXPECT_LT(flow.goodput_bps(), 2e6 / 8 * 1.1);
  EXPECT_GT(flow.goodput_bps(), 2e6 / 8 * 0.3);  // and not pathologically low
}

TEST(AimdFlow, TwoCompliantFlowsShareReasonably) {
  Fixture f(/*bottleneck_bps=*/4e6, /*pairs=*/2);
  FlowSink s0(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  FlowSink s1(f.net, f.d.sinks[1], f.sink_addrs[1], f.sink_muxes[1], net::AppProto::kWeb);
  AimdConfig cfg;
  cfg.total_segments = 200;
  AimdFlow a(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
             net::AppProto::kWeb, 1, cfg);
  AimdFlow b(f.net, f.d.sources[1], f.src_addrs[1], f.sink_addrs[1], f.src_muxes[1],
             net::AppProto::kWeb, 2, cfg);
  a.start();
  b.start();
  f.sim.run();
  ASSERT_TRUE(a.finished());
  ASSERT_TRUE(b.finished());
  const double ga = a.goodput_bps(), gb = b.goodput_bps();
  EXPECT_LT(std::max(ga, gb) / std::min(ga, gb), 3.0);  // no starvation
}

TEST(AimdFlow, AggressiveSenderStarvesCompliantAtPacketLevel) {
  // E12's claim, packet by packet: the non-backing-off sender wins.
  Fixture f(/*bottleneck_bps=*/2e6, /*pairs=*/2);
  FlowSink s0(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  FlowSink s1(f.net, f.d.sinks[1], f.sink_addrs[1], f.sink_muxes[1], net::AppProto::kWeb);
  AimdConfig compliant;
  compliant.total_segments = 150;
  AimdConfig cheater = compliant;
  cheater.aggressive = true;
  // A *competent* cheater sizes its window to keep the bottleneck queue
  // (capacity 32) nearly full without overflowing on its own traffic.
  cheater.aggressive_window = 24;
  AimdFlow good(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
                net::AppProto::kWeb, 1, compliant);
  AimdFlow bad(f.net, f.d.sources[1], f.src_addrs[1], f.sink_addrs[1], f.src_muxes[1],
               net::AppProto::kWeb, 2, cheater);
  good.start();
  bad.start();
  f.sim.run();
  ASSERT_TRUE(good.finished());
  ASSERT_TRUE(bad.finished());
  EXPECT_GT(bad.goodput_bps(), good.goodput_bps() * 1.5);
}

TEST(AimdFlow, AimdWindowRespondsToCongestion) {
  Fixture f(/*bottleneck_bps=*/1e6);
  FlowSink sink(f.net, f.d.sinks[0], f.sink_addrs[0], f.sink_muxes[0], net::AppProto::kWeb);
  AimdConfig cfg;
  cfg.total_segments = 200;
  cfg.initial_ssthresh = 10000;
  AimdFlow flow(f.net, f.d.sources[0], f.src_addrs[0], f.sink_addrs[0], f.src_muxes[0],
                net::AppProto::kWeb, 1, cfg);
  flow.start();
  f.sim.run();
  ASSERT_TRUE(flow.finished());
  // The final window must be far below the unchecked slow-start trajectory.
  EXPECT_LT(flow.final_cwnd(), 100.0);
}

TEST(TransportTag, ExactAtBothEndsOfTheSequenceSpace) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(segment_tag(5, 0), "seg:5:0");
  EXPECT_EQ(segment_tag(5, kMax), "seg:5:18446744073709551615");
  EXPECT_EQ(ack_tag(16, 0), "ack:16:0");
  EXPECT_EQ(ack_tag(kMax, kMax), "ack:18446744073709551615:18446744073709551615");
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_tag(segment_tag(kMax, kMax), "seg:", flow, seq));
  EXPECT_EQ(flow, kMax);
  EXPECT_EQ(seq, kMax);
  ASSERT_TRUE(parse_tag(ack_tag(16, 0), "ack:", flow, seq));
  EXPECT_EQ(flow, 16u);
  EXPECT_EQ(seq, 0u);
}

TEST(TransportTag, MalformedTagsAreIgnored) {
  for (const char* tag : {"seg:5", "seg:", "seg:57", "seg::5", "seg:5:", "seg:x:1", "seg:5:x",
                          "seg5:1", "ack:5:1", "", "seg:18446744073709551616:1"}) {
    std::uint64_t flow = 0;
    std::uint64_t seq = 0;
    EXPECT_FALSE(parse_tag(tag, "seg:", flow, seq)) << '"' << tag << '"';
  }
}

}  // namespace
}  // namespace tussle::apps
