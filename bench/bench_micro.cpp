// Micro-benchmarks: engine and substrate throughput.
//
// Not a paper table — the systems-performance numbers a release ships with
// so users can size their experiments.
#include <benchmark/benchmark.h>

#include "core/tussle.hpp"

using namespace tussle;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(sim::SimTime::nanos(static_cast<std::int64_t>((i * 2654435761u) % 1000000)),
             [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

// A cheap deterministic delay source, so the queue benchmarks below time the
// queue rather than the RNG: 0..2^20-1 ns (about 1 ms).
std::int64_t next_delay(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::int64_t>(x >> 44);
}

// Steady state at a fixed depth (the X1 capture world holds 5632 pending
// events): each item pops the earliest event and schedules a successor.
void BM_EventQueueHold(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::uint64_t x = depth;
  for (std::size_t i = 0; i < depth; ++i) q.push(sim::SimTime::nanos(next_delay(x)), [] {});
  for (auto _ : state) {
    auto ev = q.pop();
    benchmark::DoNotOptimize(ev.time);
    q.push(ev.time + sim::Duration::nanos(next_delay(x)), std::move(ev.action));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(5632);

// AimdFlow::arm_timer's pattern beside `depth` other pending events: each
// item dispatches one event, schedules its successor, cancels the pending
// retransmission timer and arms a new one. The timer sits beyond every
// other event, so only cancelled timers ever reach the top.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kRtoNs = 1 << 21;
  sim::EventQueue q;
  std::uint64_t x = depth;
  for (std::size_t i = 0; i < depth; ++i) q.push(sim::SimTime::nanos(next_delay(x)), [] {});
  sim::EventId timer = q.push(sim::SimTime::nanos(kRtoNs), [] {});
  for (auto _ : state) {
    auto ev = q.pop();
    benchmark::DoNotOptimize(ev.time);
    q.push(ev.time + sim::Duration::nanos(next_delay(x)), std::move(ev.action));
    if (!q.cancel(timer)) {
      state.SkipWithError("the retransmission timer was not pending");
      break;
    }
    timer = q.push(ev.time + sim::Duration::nanos(kRtoNs), [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(64)->Arg(5632);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(sim::Duration::micros(i), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_PacketForwardingLine(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    net::LinkSpec spec;
    spec.bandwidth_bps = 1e12;  // effectively free links: measure CPU path
    spec.propagation = sim::Duration::nanos(1);
    auto ids = net::build_line(net, hops, 1, spec);
    net::Address dst{.provider = 1, .subscriber = 9, .host = 9};
    net.node(ids.back()).add_address(dst);
    for (auto id : ids) net.node(id).forwarding().set_default_route(
        id == ids.front() ? 0 : static_cast<net::IfIndex>(net.node(id).interface_count() - 1));
    for (int i = 0; i < 100; ++i) {
      net::Packet p;
      p.dst = dst;
      p.ttl = 255;
      net.node(ids.front()).originate(std::move(p));
    }
    sim.run();
    benchmark::DoNotOptimize(net.counters().delivered.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_PacketForwardingLine)->Arg(8)->Arg(32);

void BM_PolicyEval(benchmark::State& state) {
  auto onto = policy::standard_packet_ontology();
  auto expr = policy::Expr::compile(
      "proto == 'p2p' or (size > 1200 and tos == 'premium') or opaque", onto);
  net::Packet p;
  p.proto = net::AppProto::kWeb;
  p.size_bytes = 1400;
  p.tos = net::ServiceClass::kPremium;
  auto ctx = policy::context_for_packet(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.test(ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyEval);

void BM_PolicyCompile(benchmark::State& state) {
  auto onto = policy::standard_packet_ontology();
  for (auto _ : state) {
    auto e = policy::Expr::compile("proto in ['p2p','vpn'] and size > 100 and not opaque",
                                   onto);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_DijkstraSpf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::Network net(sim);
  sim::Rng rng(1);
  auto ids = net::build_random(net, n, 1, rng, 0.3, 0.3, net::LinkSpec{});
  routing::LinkState ls(net);
  for (auto _ : state) {
    auto tree = ls.spf(ids[0]);
    benchmark::DoNotOptimize(tree.dist.size());
  }
}
BENCHMARK(BM_DijkstraSpf)->Arg(50)->Arg(200);

void BM_PathVectorConvergence(benchmark::State& state) {
  sim::Rng rng(2);
  auto h = routing::make_hierarchy(rng, 3, 10, static_cast<std::size_t>(state.range(0)));
  routing::PathVector pv(h.graph);
  for (auto _ : state) {
    auto out = pv.compute(h.stubs[0]);
    benchmark::DoNotOptimize(out.rounds);
  }
}
BENCHMARK(BM_PathVectorConvergence)->Arg(20)->Arg(80);

void BM_MarketPeriod(benchmark::State& state) {
  sim::Rng rng(3);
  econ::MarketConfig cfg;
  cfg.consumers = 1000;
  std::vector<econ::ProviderConfig> providers(4);
  for (std::size_t i = 0; i < providers.size(); ++i) {
    providers[i].name = "p" + std::to_string(i);
  }
  econ::Market market(cfg, providers, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(market.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_MarketPeriod);

void BM_RegretMatchingRound(benchmark::State& state) {
  auto g = game::congestion_compliance_game();
  game::RegretMatching a(game::row_payoff_matrix(g));
  game::RegretMatching b(game::col_payoff_matrix(g));
  sim::Rng rng(4);
  for (auto _ : state) {
    auto out = game::play_repeated(g, a, b, 100, rng);
    benchmark::DoNotOptimize(out.row_mean_payoff);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_RegretMatchingRound);

void BM_NameLookup(benchmark::State& state) {
  names::ModularNameSystem s;
  std::vector<std::string> machines;
  for (int i = 0; i < 1000; ++i) {
    machines.push_back(s.register_service(
        "brand-" + std::to_string(i),
        net::Address{.provider = 1, .subscriber = static_cast<std::uint32_t>(i), .host = 1},
        "mb"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.resolve_machine(machines[i % machines.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NameLookup);

}  // namespace

BENCHMARK_MAIN();
