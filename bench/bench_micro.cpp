// Micro-benchmarks: engine and substrate throughput.
//
// Not a paper table — the systems-performance numbers a release ships with
// so users can size their experiments.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "core/tussle.hpp"
#include "sim/mem_profile.hpp"
#include "sim/scale_profile.hpp"
#include "sim/shard_audit.hpp"

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

// Steady state at a fixed depth: each item pops the earliest event and
// schedules a successor. The X1 capture world holds 5632 pending events,
// which the queue keeps in calendar buckets; 64 is a shallow queue
// (aimd-middlebox, a transit AS's queue under the sharded backend), kept as
// one heap.
// With `far_event`, one more event sits at SimTime::max() throughout: an
// outlier that must not widen the calendar's buckets.
void event_queue_hold(benchmark::State& state, bool far_event) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::uint64_t x = depth;
  for (std::size_t i = 0; i < depth; ++i) q.push(sim::SimTime::nanos(next_delay(x)), [] {});
  if (far_event) q.push(sim::SimTime::max(), [] {});
  for (auto _ : state) {
    auto ev = q.pop();
    benchmark::DoNotOptimize(ev.time);
    q.push(ev.time + sim::Duration::nanos(next_delay(x)), std::move(ev.action));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_EventQueueHold(benchmark::State& state) { event_queue_hold(state, false); }
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(5632);

void BM_EventQueueHoldFarEvent(benchmark::State& state) { event_queue_hold(state, true); }
BENCHMARK(BM_EventQueueHoldFarEvent)->Arg(5632);

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

/// Which observers a world attaches, in capture-observed's order: the
/// shard auditor, then the scale and memory profilers.
enum ObserverSet : unsigned { kBare = 0, kAudit = 1, kScale = 2, kMem = 4, kAll = 7 };

/// The observers of one world. The scale profiler attached without kAudit
/// still gets an auditor, fail-soft, for its shard attribution, as the
/// sweep attaches it; the memory profiler reads none.
struct Observers {
  sim::ShardAuditor audit;
  sim::ScaleProfiler scale;
  sim::MemProfiler mem;

  void attach(sim::Simulator& sim, unsigned set) {
    if ((set & (kAudit | kScale)) != 0) {
      audit.set_fail_fast((set & kAudit) != 0);
      sim.set_auditor(&audit);
    }
    if ((set & kScale) != 0) sim.set_scale_profiler(&scale);
    if ((set & kMem) != 0) sim.set_mem_profiler(&mem);
  }
};

// 100 packets down a line of `hops` nodes, with the observers in `set`
// attached to `obs` before the world is built (as RunContext::instrument
// does), or none.
std::int64_t run_line(std::size_t hops, Observers* obs, unsigned set) {
  sim::Simulator sim;
  if (obs != nullptr) obs->attach(sim, set);
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
  return net.counters().delivered.value();
}

void forwarding_line(benchmark::State& state, unsigned set) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::optional<Observers> observers;
    if (set != kBare) observers.emplace();
    benchmark::DoNotOptimize(run_line(hops, observers ? &*observers : nullptr, set));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(hops));
}

void BM_PacketForwardingLine(benchmark::State& state) { forwarding_line(state, kBare); }
BENCHMARK(BM_PacketForwardingLine)->Arg(8)->Arg(32);

// The same line with the observers attached: their hooks per event and per
// hop, and their per-world set-up, without the rest of the capture world.
void BM_ObservedForwardingLine(benchmark::State& state) { forwarding_line(state, kAll); }
BENCHMARK(BM_ObservedForwardingLine)->Arg(8);

// Each observer alone, so a change to one shows in its own row: the
// auditor (fail-fast, as --audit runs it), the scale profiler with the
// fail-soft auditor the sweep gives it, and the memory profiler alone.
void BM_AuditedForwardingLine(benchmark::State& state) { forwarding_line(state, kAudit); }
BENCHMARK(BM_AuditedForwardingLine)->Arg(8);
void BM_ScaleProfiledForwardingLine(benchmark::State& state) {
  forwarding_line(state, kScale);
}
BENCHMARK(BM_ScaleProfiledForwardingLine)->Arg(8);
void BM_MemProfiledForwardingLine(benchmark::State& state) { forwarding_line(state, kMem); }
BENCHMARK(BM_MemProfiledForwardingLine)->Arg(8);

// Sixteen recorded runs of the 8-hop line, all three observers each,
// merged into one set whose reports are exported with report_json: the
// work a sweep does after its runs, so a change that moves recording work
// into merge or export shows here. Items are runs merged.
void BM_ObserverMergeExport(benchmark::State& state) {
  constexpr int kRuns = 16;
  std::vector<Observers> runs(kRuns);
  for (Observers& r : runs) run_line(8, &r, kAll);
  for (auto _ : state) {
    Observers merged;
    for (const Observers& r : runs) {
      merged.audit.merge(r.audit);
      merged.scale.merge(r.scale);
      merged.mem.merge(r.mem);
    }
    benchmark::DoNotOptimize(merged.audit.report_json().size() +
                             merged.scale.report_json().size() +
                             merged.mem.report_json().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRuns);
}
BENCHMARK(BM_ObserverMergeExport);

// Packet hops over one link, `burst` packets sent at once per iteration:
// Link::transmit_from, the serialize event, the propagate event and the far
// node's receive, which delivers each packet locally.
void link_hops(benchmark::State& state, int burst) {
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId a = net.add_node(1);
  const net::NodeId b = net.add_node(1);
  net::Link& link = net.connect(a, b, 1e9, sim::Duration::micros(1));
  net::Packet p;
  p.dst = net::Address{.provider = 1, .subscriber = 2, .host = 1};
  net.node(b).add_address(p.dst);
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) link.transmit_from(a, net::Packet(p));
    benchmark::DoNotOptimize(sim.run());
  }
  const auto sent = static_cast<std::int64_t>(state.iterations()) * burst;
  if (net.counters().delivered.value() != sent) {
    state.SkipWithError("a hop did not deliver its packet");
  }
  state.SetItemsProcessed(sent);
}

// One packet at a time: the idle link puts it straight on the wire.
void BM_LinkHop(benchmark::State& state) { link_hops(state, 1); }
BENCHMARK(BM_LinkHop);

// Bursts of 8: the first packet goes straight on the wire and the other 7
// wait in the drop-tail ring, so this row times the enqueue and dequeue.
void BM_LinkHopQueued(benchmark::State& state) { link_hops(state, 8); }
BENCHMARK(BM_LinkHopQueued);

// run_sweep over 64 runs of a trivial body on one worker: each run's
// record, RNG stream and RunContext, and with audit:1 the per-run shard
// auditor the engine builds for every run (SweepOptions::audit).
void BM_SweepFanOut(benchmark::State& state) {
  core::ScenarioSpec spec;
  spec.name = "fan-out";
  spec.replicas = 64;
  spec.body = [](core::RunContext& ctx) { ctx.put("draw", ctx.rng().uniform()); };
  core::SweepOptions opts;
  opts.jobs = 1;
  opts.audit = state.range(0) != 0;
  for (auto _ : state) benchmark::DoNotOptimize(core::run_sweep(spec, opts).runs.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SweepFanOut)->ArgName("audit")->Arg(0)->Arg(1);

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

// One whole filter call, binding the packet's fields included (BM_PolicyEval
// above is the evaluator alone, over a pre-built context): the ISP filter of
// perfbench's aimd-middlebox workload on a web packet it accepts.
void BM_PacketFilter(benchmark::State& state) {
  policy::PolicySet ps(policy::standard_packet_ontology(), policy::Effect::kPermit);
  ps.add("no-p2p", policy::Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("no-oversize", policy::Effect::kDeny, "size > 9000 and not encrypted", "economics");
  const net::PacketFilter f = policy::make_packet_filter("isp", /*disclosed=*/true, std::move(ps));
  net::Packet p;
  p.proto = net::AppProto::kWeb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.fn(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketFilter);

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
