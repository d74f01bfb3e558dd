#include "workloads.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>

#include "alloc.hpp"
#include "apps/mux.hpp"
#include "apps/transport.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "policy/packet_adapter.hpp"
#include "routing/link_state.hpp"
#include "routing/path_vector.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace apps = tussle::apps;
namespace net = tussle::net;
namespace policy = tussle::policy;
namespace routing = tussle::routing;

using Clock = std::chrono::steady_clock;
using routing::AsId;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `tr->*m` when the round is traced, else null (no timer is taken).
double* slot(LayerTrace* tr, double LayerTrace::*m) { return tr != nullptr ? &(tr->*m) : nullptr; }

/// Runs `f`, adding its wall time to `*acc` when `acc` is not null.
template <class F>
decltype(auto) timed(double* acc, F&& f) {
  struct Add {
    double* acc;
    Clock::time_point t0;
    ~Add() {
      if (acc != nullptr) *acc += seconds_since(t0);
    }
  } add{acc, acc != nullptr ? Clock::now() : Clock::time_point{}};
  return f();
}

/// Runs the world's simulation to `horizon`, timing it and, when traced,
/// counting its allocations; then reads the network's packet counters and
/// checks that nothing is pending and every packet is accounted for.
void run_world(sim::Simulator& sim, const net::Network& net, sim::SimTime horizon,
               LayerTrace* tr, WorldResult& r) {
  const AllocTally a0 = alloc_tally();
  const auto t0 = Clock::now();
  r.events = sim.run(horizon);
  r.run_s = seconds_since(t0);
  if (tr != nullptr) {
    const AllocTally a1 = alloc_tally();
    tr->run_allocs += a1.calls - a0.calls;
    tr->run_alloc_bytes += a1.bytes - a0.bytes;
  }

  const auto& c = net.counters();
  r.originated = static_cast<std::uint64_t>(c.originated.value());
  r.delivered = static_cast<std::uint64_t>(c.delivered.value());
  r.dropped_queue = static_cast<std::uint64_t>(c.dropped_queue.value());
  r.dropped_filter = static_cast<std::uint64_t>(c.dropped_filter.value());
  r.dropped_other = static_cast<std::uint64_t>(c.dropped_ttl.value() + c.dropped_no_route.value() +
                                               c.dropped_link_down.value());
  r.latency_ns = std::llround(c.delivery_latency_s.total() * 1e9);
  r.end_ns = sim.now().as_nanos();

  if (sim.events_pending() != 0) {
    r.error = "events still pending after run";
  } else if (r.originated != r.delivered + r.dropped_queue + r.dropped_filter + r.dropped_other) {
    r.error = "packets not conserved";
  }
}

// --- capture: the X1 data-plane-capture world of bench_hijack ------------

constexpr int kProbesPerStub = 256;

void capture_world(core::RunContext& ctx, const routing::Hierarchy& h, bool validation,
                   LayerTrace* tr, WorldResult& r) {
  const auto t_setup = Clock::now();
  const AllocTally a0 = alloc_tally();
  const AsId victim = h.stubs[0];
  const AsId attacker = h.stubs.back();
  const net::Address victim_addr{victim, 1, 1, false};

  std::optional<sim::Simulator> sim(std::in_place, ctx.rng().next_u64());
  ctx.instrument(*sim);
  std::optional<net::Network> net;
  std::map<AsId, net::NodeId> node_of;
  std::map<AsId, std::map<AsId, net::IfIndex>> iface;
  timed(slot(tr, &LayerTrace::build_s), [&] {
    net.emplace(*sim);
    for (const auto* tier : {&h.tier1, &h.tier2, &h.stubs}) {
      for (const AsId as : *tier) node_of[as] = net->add_node(as);
    }
    for (const auto& [as, nid] : node_of) {
      for (const auto& [nbr, rel] : h.graph.neighbors(as)) {
        if (as < nbr) {
          net->connect(nid, node_of.at(nbr), 1e9,
                       sim::Duration::millis(rel == routing::Rel::kPeer ? 3 : 1));
        }
      }
    }
    for (const auto& [as, nid] : node_of) {
      for (const auto& [peer, ifx] : net->neighbors(nid)) iface[as][net->node(peer).as()] = ifx;
    }
  });

  const auto routes = timed(slot(tr, &LayerTrace::compute_s), [&] {
    routing::PathVector pv(h.graph);
    return pv.compute_with_origins({victim, attacker}, validation, victim);
  });
  if (tr != nullptr) tr->routing_rounds += static_cast<std::uint64_t>(routes.rounds);

  // The hijacker answers for the stolen prefix exactly as the victim does.
  std::uint64_t to_victim = 0, to_attacker = 0;
  timed(slot(tr, &LayerTrace::build_s), [&] {
    for (const auto& [as, route] : routes.routes) {
      if (!route.valid() || as == victim || as == attacker) continue;
      net->node(node_of.at(as))
          .forwarding()
          .set_prefix_route(net::prefix_of(victim_addr), iface.at(as).at(route.next_hop));
    }
    net->node(node_of.at(victim)).add_address(victim_addr);
    net->node(node_of.at(attacker)).add_address(victim_addr);
    net->node(node_of.at(victim)).set_local_handler([&to_victim](const net::Packet&) {
      ++to_victim;
    });
    net->node(node_of.at(attacker)).set_local_handler([&to_attacker](const net::Packet&) {
      ++to_attacker;
    });
  });

  // Every stub but the two origins sends a probe train, injected on its
  // own AS so a sharded backend originates the trains concurrently.
  std::uint64_t probes = 0;
  timed(slot(tr, &LayerTrace::schedule_s), [&] {
    int stagger = 0;
    for (const AsId s : h.stubs) {
      if (s == victim || s == attacker) continue;
      const net::NodeId nid = node_of.at(s);
      net::Network* n = &*net;
      for (int k = 0; k < kProbesPerStub; ++k) {
        sim->schedule_for(static_cast<sim::ShardId>(s),
                          sim::Duration::micros(500 + 100 * (stagger % 7) + 500 * k),
                          sim::TaskTag{"perfbench.capture", "probe"}, [n, nid, victim_addr, s] {
                            net::Packet p;
                            p.src = net::Address{s, 1, 1, false};
                            p.dst = victim_addr;
                            p.proto = net::AppProto::kWeb;
                            n->node(nid).originate(p);
                          });
        ++probes;
      }
      ++stagger;
    }
  });
  r.initial_pending = sim->events_pending();
  if (tr != nullptr) tr->setup_allocs += alloc_tally().calls - a0.calls;
  r.setup_s += seconds_since(t_setup);

  run_world(*sim, *net, sim::SimTime::max(), tr, r);
  if (auto* sb = dynamic_cast<sim::ShardedBackend*>(&sim->backend())) r.windows = sb->windows_run();
  r.to_victim = to_victim;
  r.to_attacker = to_attacker;
  if (r.error.empty() && (r.originated != probes || r.delivered != probes ||
                          r.to_victim + r.to_attacker != probes)) {
    r.error = "a probe was not delivered";
  }
  if (r.error.empty() && validation && r.to_attacker != 0) {
    r.error = "capture with origin validation on";
  }

  const auto t_down = Clock::now();
  net.reset();
  sim.reset();
  r.teardown_s = seconds_since(t_down);
}

void capture_replica(core::RunContext& ctx, LayerTrace* tr, WorldResult* worlds) {
  const auto t0 = Clock::now();
  const AllocTally a0 = alloc_tally();
  const auto h = routing::make_hierarchy(ctx.rng(), 3, 8, 24);
  // The shared AS graph is set-up of the first world.
  worlds[0].setup_s = seconds_since(t0);
  if (tr != nullptr) tr->setup_allocs += alloc_tally().calls - a0.calls;
  // Both validation variants run on the same sampled hierarchy.
  capture_world(ctx, h, false, tr, worlds[0]);
  capture_world(ctx, h, true, tr, worlds[1]);
}

// --- aimd-middlebox: Go-Back-N AIMD flows through filtering routers -------

constexpr std::size_t kFlows = 16;          // a quarter of them aggressive
constexpr std::uint64_t kSegments = 400;    // per flow
constexpr std::int64_t kStartSpreadUs = 20000;
const sim::SimTime kHorizon = sim::SimTime::seconds(600);

/// One ISP filter per router: a couple of rules the flows never match, so
/// every packet pays a full evaluation and none is dropped by it.
net::PacketFilter isp_filter(LayerTrace* tr) {
  policy::PolicySet ps(policy::standard_packet_ontology(), policy::Effect::kPermit);
  ps.add("no-p2p", policy::Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("no-oversize", policy::Effect::kDeny, "size > 9000 and not encrypted", "economics");
  net::PacketFilter f = policy::make_packet_filter("isp", /*disclosed=*/true, std::move(ps));
  if (tr != nullptr) {
    f.fn = [inner = std::move(f.fn), tr](const net::Packet& p) {
      const auto t0 = Clock::now();
      net::FilterDecision d = inner(p);
      tr->filter_s += seconds_since(t0);
      ++tr->filter_calls;
      return d;
    };
  }
  return f;
}

/// AppMux::install, with the node's handler timed when the round is traced.
std::shared_ptr<apps::AppMux> install_mux(net::Node& node, LayerTrace* tr) {
  if (tr == nullptr) return apps::AppMux::install(node);
  auto mux = std::make_shared<apps::AppMux>();
  node.set_local_handler([mux, tr](const net::Packet& p) {
    const auto t0 = Clock::now();
    mux->dispatch(p);
    tr->dispatch_s += seconds_since(t0);
    ++tr->dispatch_calls;
  });
  return mux;
}

void aimd_world(core::RunContext& ctx, LayerTrace* tr, WorldResult& r) {
  const auto t_setup = Clock::now();
  const AllocTally a0 = alloc_tally();
  std::optional<sim::Simulator> sim(std::in_place, ctx.rng().next_u64());
  ctx.instrument(*sim);
  std::optional<net::Network> net;
  net::Dumbbell d;
  std::vector<net::NodeId> members;
  std::vector<net::Address> src_addr, sink_addr;
  timed(slot(tr, &LayerTrace::build_s), [&] {
    net.emplace(*sim);
    net::LinkSpec edge;
    edge.bandwidth_bps = 100e6;
    edge.propagation = sim::Duration::millis(1);
    net::LinkSpec bottleneck;
    bottleneck.bandwidth_bps = 8e6;
    bottleneck.propagation = sim::Duration::millis(10);
    bottleneck.queue_capacity = 64;
    d = net::build_dumbbell(*net, kFlows, edge, bottleneck);
    std::uint32_t sub = 0;
    auto address = [&](net::NodeId n) {
      const net::Address a{.provider = 1, .subscriber = sub++, .host = 1};
      net->node(n).add_address(a);
      members.push_back(n);
      return a;
    };
    address(d.left_router);
    address(d.right_router);
    for (const net::NodeId n : d.sources) src_addr.push_back(address(n));
    for (const net::NodeId n : d.sinks) sink_addr.push_back(address(n));
  });
  timed(slot(tr, &LayerTrace::compute_s),
        [&] { routing::LinkState(*net).install_routes(members); });
  for (const net::NodeId router : {d.left_router, d.right_router}) {
    net::PacketFilter f = isp_filter(tr);
    timed(slot(tr, &LayerTrace::build_s), [&] { net->node(router).add_filter(std::move(f)); });
  }

  // A quarter of the senders are the §II-B cheaters that never back off.
  std::vector<std::size_t> order(kFlows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  ctx.rng().shuffle(order);
  std::vector<bool> aggressive(kFlows, false);
  for (std::size_t i = 0; i < kFlows / 4; ++i) aggressive[order[i]] = true;

  std::vector<std::unique_ptr<apps::FlowSink>> sinks;
  std::vector<std::unique_ptr<apps::AimdFlow>> flows;
  for (std::size_t i = 0; i < kFlows; ++i) {
    auto sink_mux = install_mux(net->node(d.sinks[i]), tr);
    auto src_mux = install_mux(net->node(d.sources[i]), tr);
    sinks.push_back(std::make_unique<apps::FlowSink>(*net, d.sinks[i], sink_addr[i], sink_mux,
                                                     net::AppProto::kWeb));
    apps::AimdConfig cfg;
    cfg.total_segments = kSegments;
    cfg.aggressive = aggressive[i];
    cfg.aggressive_window = 16;
    flows.push_back(std::make_unique<apps::AimdFlow>(*net, d.sources[i], src_addr[i],
                                                     sink_addr[i], src_mux, net::AppProto::kWeb,
                                                     static_cast<net::FlowId>(i + 1), cfg));
  }
  timed(slot(tr, &LayerTrace::schedule_s), [&] {
    for (auto& f : flows) {
      apps::AimdFlow* flow = f.get();
      sim->schedule(sim::Duration::micros(ctx.rng().uniform_int(0, kStartSpreadUs)),
                    sim::TaskTag{"perfbench.aimd", "start"}, [flow] { flow->start(); });
    }
  });
  r.initial_pending = sim->events_pending();
  if (tr != nullptr) tr->setup_allocs += alloc_tally().calls - a0.calls;
  r.setup_s += seconds_since(t_setup);

  run_world(*sim, *net, kHorizon, tr, r);
  r.flows = kFlows;
  for (const auto& f : flows) {
    r.segments += kSegments;
    r.flows_finished += f->finished() ? 1 : 0;
    r.retransmissions += f->retransmissions();
    r.timeouts += f->timeouts();
    r.completion_ns += std::llround(f->completion_time_s() * 1e9);
  }
  if (r.error.empty() && r.flows_finished != r.flows) r.error = "a flow did not finish";

  const auto t_down = Clock::now();
  flows.clear();
  sinks.clear();
  net.reset();
  sim.reset();
  r.teardown_s = seconds_since(t_down);
}

/// The simulated outcome of a world: what the digest hashes and
/// same_outcome compares.
std::array<std::uint64_t, 14> outcome_fields(const WorldResult& w) {
  return {w.originated,    w.delivered,   w.dropped_queue,
          w.dropped_filter, w.dropped_other, w.to_victim,
          w.to_attacker,   w.flows_finished, w.segments,
          w.retransmissions, w.timeouts,  static_cast<std::uint64_t>(w.completion_ns),
          static_cast<std::uint64_t>(w.latency_ns), static_cast<std::uint64_t>(w.end_ns)};
}

/// Runs one world-producing call, turning an exception into a failed world
/// so the rest of the round still runs.
template <class F>
void guarded(WorldResult* worlds, std::size_t n, F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < n; ++i) {
      if (worlds[i].error.empty()) worlds[i].error = std::string("threw: ") + e.what();
    }
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "capture") return Workload::kCapture;
  if (name == "aimd-middlebox") return Workload::kAimdMiddlebox;
  if (name == "capture-observed") return Workload::kCaptureObserved;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCapture: return "capture";
    case Workload::kAimdMiddlebox: return "aimd-middlebox";
    case Workload::kCaptureObserved: return "capture-observed";
  }
  return "?";
}

bool same_outcome(const WorldResult& a, const WorldResult& b) {
  return outcome_fields(a) == outcome_fields(b);
}

std::uint64_t digest(const std::vector<WorldResult>& worlds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const WorldResult& w : worlds) {
    for (const std::uint64_t v : outcome_fields(w)) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

core::SweepOptions observed_options() {
  core::SweepOptions o;
  o.audit = o.scale = o.mem = true;
  return o;
}

RoundResult run_round(Workload w, std::uint64_t seed, std::size_t replicas,
                      core::SweepOptions opts, LayerTrace* trace) {
  const bool capture = w != Workload::kAimdMiddlebox;
  const std::size_t per_replica = capture ? 2 : 1;
  RoundResult out;
  out.worlds.resize(replicas * per_replica);

  core::ScenarioSpec spec;
  spec.name = workload_name(w);
  spec.body = [&](core::RunContext& ctx) {
    const auto t0 = Clock::now();
    WorldResult* worlds = &out.worlds[ctx.run_index() * per_replica];
    guarded(worlds, per_replica, [&] {
      if (capture) {
        capture_replica(ctx, trace, worlds);
      } else {
        aimd_world(ctx, trace, worlds[0]);
      }
    });
    out.body_s += seconds_since(t0);
  };

  opts.base_seed = seed;
  opts.jobs = 1;
  opts.replicas = replicas;
  const auto t0 = Clock::now();
  out.sweep = core::run_sweep(spec, opts);
  out.sweep_s = seconds_since(t0);

  // A hijacker that shares every provider with the victim can lose every
  // tie and capture nothing, so capture without validation is required of
  // the round, not of each world.
  if (capture) {
    std::uint64_t captured = 0;
    for (std::size_t i = 0; i < out.worlds.size(); i += 2) captured += out.worlds[i].to_attacker;
    if (captured == 0) {
      for (std::size_t i = 0; i < out.worlds.size(); i += 2) {
        if (out.worlds[i].error.empty()) out.worlds[i].error = "no capture with origin validation off";
      }
    }
  }
  return out;
}

}  // namespace perfbench
