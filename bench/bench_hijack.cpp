// X1 — Byzantine routing: prefix hijack and origin validation (§II-B).
//
// The paper's second "system design perspective on tussle" is building
// systems "more resistant to those that perceive the answer differently"
// (Perlman's byzantine robustness, Savage's uncooperative-Internet work).
// This extension experiment quantifies that school on our path-vector
// substrate: a hijacker falsely originates a victim's prefix, and an
// RPKI-style origin-validation deployment is the technical bound.
#include <algorithm>
#include <iostream>
#include <map>

#include "core/report.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "routing/path_vector.hpp"

using namespace tussle;
using routing::AsId;

int main(int argc, char** argv) {
  return bench::run(
      argc, argv,
      {"X1", "SII-B byzantine actors in routing (extension)",
       "A false-origin announcement captures a large share of the network\n"
       "under plain Gao-Rexford; origin validation eliminates the capture.\n"
       "Which hijacker tier captures the most depends on the sampled hierarchy."},
      [](bench::Harness& bh) {
        core::ScenarioSpec tiers;
        tiers.name = "hijack-by-tier";
        tiers.description = "capture by hijacker tier; validation on/off on one graph";
        tiers.grid.axis("tier", {0, 1, 2});
        // Both validation variants run against the same sampled hierarchy, so
        // the on/off rows stay a paired comparison.
        tiers.body = [](core::RunContext& ctx) {
          auto h = routing::make_hierarchy(ctx.rng(), 3, 8, 24);
          const AsId victim = h.stubs[0];
          const AsId attackers[] = {h.stubs.back(), h.tier2[0], h.tier1[0]};
          const AsId attacker = attackers[static_cast<std::size_t>(ctx.param("tier"))];
          for (bool validation : {false, true}) {
            auto r = routing::simulate_hijack(h.graph, victim, attacker, validation);
            const std::string k = validation ? "on." : "off.";
            ctx.put(k + "captured", static_cast<double>(r.captured));
            ctx.put(k + "legitimate", static_cast<double>(r.legitimate));
            ctx.put(k + "unreachable", static_cast<double>(r.unreachable));
            ctx.put(k + "capture_fraction", r.capture_fraction);
          }
        };
        bh.scenario(tiers, [](const core::SweepResult& res) {
          const char* labels[] = {"stub", "tier-2 transit", "tier-1 backbone"};
          core::Table t({"hijacker-tier", "validation", "captured", "legitimate",
                         "unreachable", "capture-fraction"});
          for (std::size_t p = 0; p < res.points.size(); ++p) {
            for (const char* k : {"off", "on"}) {
              const std::string pre = std::string(k) + ".";
              t.add_row({std::string(labels[p]), std::string(k),
                         static_cast<long long>(res.mean(p, pre + "captured")),
                         static_cast<long long>(res.mean(p, pre + "legitimate")),
                         static_cast<long long>(res.mean(p, pre + "unreachable")),
                         res.mean(p, pre + "capture_fraction")});
            }
          }
          t.print(std::cout);
        });

        // Incremental RPKI-style rollout: validation deploys one AS at a
        // time and the hijacked share of the network is re-measured after
        // each step. Telemetry: 1 deployment step = 10 simulated ms, so the
        // adoption curve lands on the recorder's tick grid.
        core::ScenarioSpec rollout;
        rollout.name = "validation-rollout";
        rollout.description = "hijacked fraction vs validation deployment, AS by AS";
        rollout.grid.axis("order", {0, 1});  // 0 = top-down, 1 = bottom-up
        rollout.body = [](core::RunContext& ctx) {
          auto h = routing::make_hierarchy(ctx.rng(), 3, 8, 24);
          const AsId victim = h.stubs[0];
          const AsId attacker = h.stubs.back();
          std::vector<AsId> order;
          auto append = [&order](const std::vector<AsId>& v) {
            order.insert(order.end(), v.begin(), v.end());
          };
          if (ctx.param("order") == 0) {
            append(h.tier1), append(h.tier2), append(h.stubs);
          } else {
            append(h.stubs), append(h.tier2), append(h.tier1);
          }
          // The attacker won't deploy a defense against itself.
          order.erase(std::remove(order.begin(), order.end(), attacker), order.end());

          auto* rec = ctx.timeseries();
          routing::HijackOutcome cur;
          double share = 0;
          if (rec != nullptr) {
            rec->probe("hijacked_fraction", [&cur] { return cur.capture_fraction; });
            rec->probe("unreachable_fraction", [&cur] {
              return cur.total_ases == 0 ? 0.0
                                         : static_cast<double>(cur.unreachable) /
                                               static_cast<double>(cur.total_ases);
            });
            rec->probe("validator_share", [&share] { return share; });
          }
          std::vector<AsId> validators;
          double initial = 0, half_step = -1;
          for (std::size_t step = 0; step <= order.size(); ++step) {
            if (step > 0) {
              validators.push_back(order[step - 1]);
              std::sort(validators.begin(), validators.end());
            }
            share = static_cast<double>(validators.size()) /
                    static_cast<double>(order.size());
            cur = routing::simulate_hijack_partial(h.graph, victim, attacker, validators);
            if (step == 0) initial = cur.capture_fraction;
            if (half_step < 0 && cur.capture_fraction <= initial / 2) {
              half_step = static_cast<double>(step);
            }
            if (rec != nullptr) {
              rec->maybe_sample(sim::SimTime::millis(10 * (static_cast<std::int64_t>(step) + 1)));
            }
          }
          if (rec != nullptr) {
            // Hold the fully-deployed state so the flat tail is visible to
            // the convergence detector.
            rec->maybe_sample(sim::SimTime::millis(600));
            rec->finish(sim::SimTime::millis(600));
          }
          ctx.put("capture_initial", initial);
          ctx.put("capture_final", cur.capture_fraction);
          ctx.put("steps_to_halve", half_step);
        };
        bh.scenario(rollout, [](const core::SweepResult& res) {
          std::cout << "\nIncremental origin-validation rollout (one AS per step)\n\n";
          const char* names[] = {"top-down (tier-1 first)", "bottom-up (stubs first)"};
          core::Table t({"deploy-order", "initial-capture", "final-capture",
                         "steps-to-halve"});
          for (std::size_t p = 0; p < res.points.size(); ++p) {
            t.add_row({std::string(names[p]), res.mean(p, "capture_initial"),
                       res.mean(p, "capture_final"), res.mean(p, "steps_to_halve")});
          }
          t.print(std::cout);
          std::cout << "\nDeployment order is itself a tussle outcome: the same validator\n"
                       "count protects far more of the network when the transit core\n"
                       "moves first.\n";
        });

        core::ScenarioSpec pairs;
        pairs.name = "stub-pair-sweep";
        pairs.description = "mean capture across 10 random victim/attacker stub pairs";
        pairs.body = [](core::RunContext& ctx) {
          auto h = routing::make_hierarchy(ctx.rng(), 3, 8, 24);
          for (bool validation : {false, true}) {
            double total = 0;
            int n = 0;
            for (std::size_t i = 0; i + 1 < h.stubs.size() && n < 10; i += 2, ++n) {
              auto r =
                  routing::simulate_hijack(h.graph, h.stubs[i], h.stubs[i + 1], validation);
              total += r.capture_fraction;
            }
            ctx.put(std::string("mean_capture.validation_") + (validation ? "on" : "off"),
                    total / n);
          }
        };
        bh.scenario(pairs, [&bh](const core::SweepResult& res) {
          std::cout << "\nMean capture across 10 random victim/attacker stub pairs\n\n";
          core::Table t({"validation", "mean-capture-fraction"});
          for (const char* k : {"off", "on"}) {
            const std::string key = std::string("mean_capture.validation_") + k;
            t.add_row({std::string(k), res.mean(0, key)});
            bh.metrics().gauge(key, res.mean(0, key));
          }
          t.print(std::cout);

          std::cout << "\nReading: the 'one right answer' design school works — when the\n"
                       "right answer (the legitimate origin) can be authenticated. The\n"
                       "tussle moves to who runs the trust anchor.\n";
        });

        // Data-plane realization of the same tussle: install the converged
        // (possibly hijacked) forwarding state on a real Network — one node
        // per AS, one link per graph edge — and let probe packets vote with
        // their feet. This is the case the scale profiler measures: each AS
        // is a provisional PDES shard, the inter-AS links carry its
        // lookahead, and probe fan-in is its cross-shard traffic.
        core::ScenarioSpec capture;
        capture.name = "data-plane-capture";
        capture.description = "probe packets routed under hijacked vs validated FIBs";
        capture.body = [](core::RunContext& ctx) {
          auto h = routing::make_hierarchy(ctx.rng(), 3, 8, 24);
          const AsId victim = h.stubs[0];
          const AsId attacker = h.stubs.back();
          const net::Address victim_addr{victim, 1, 1, false};
          for (bool validation : {false, true}) {
            sim::Simulator sim(ctx.rng().next_u64());
            ctx.instrument(sim);
            net::Network net(sim);

            std::map<AsId, net::NodeId> node_of;
            auto add_all = [&](const std::vector<AsId>& ases) {
              for (const AsId as : ases) node_of[as] = net.add_node(as);
            };
            add_all(h.tier1), add_all(h.tier2), add_all(h.stubs);
            // Peering links are longer than customer hauls, so the PDES
            // lookahead distribution has two modes.
            for (const auto& [as, nid] : node_of) {
              for (const auto& [nbr, rel] : h.graph.neighbors(as)) {
                if (as < nbr) {
                  net.connect(nid, node_of.at(nbr), 1e9,
                              sim::Duration::millis(rel == routing::Rel::kPeer ? 3 : 1));
                }
              }
            }
            std::map<AsId, std::map<AsId, net::IfIndex>> iface;
            for (const auto& [as, nid] : node_of) {
              for (const auto& [peer, ifx] : net.neighbors(nid)) {
                iface[as][net.node(peer).as()] = ifx;
              }
            }

            routing::PathVector pv(h.graph);
            const auto out = pv.compute_with_origins({victim, attacker}, validation, victim);
            for (const auto& [as, route] : out.routes) {
              if (!route.valid() || as == victim || as == attacker) continue;
              net.node(node_of.at(as))
                  .forwarding()
                  .set_prefix_route(net::prefix_of(victim_addr),
                                    iface.at(as).at(route.next_hop));
            }

            // The hijacker answers for the stolen prefix exactly like the
            // victim does — capture is indistinguishable at the endpoint.
            std::size_t to_victim = 0, to_attacker = 0;
            net.node(node_of.at(victim)).add_address(victim_addr);
            net.node(node_of.at(attacker)).add_address(victim_addr);
            net.node(node_of.at(victim))
                .set_local_handler([&to_victim](const net::Packet&) { ++to_victim; });
            net.node(node_of.at(attacker))
                .set_local_handler([&to_attacker](const net::Packet&) { ++to_attacker; });

            // Each stub sends a probe train toward the stolen prefix. The
            // trains are injected with schedule_for(stub AS) so every probe
            // executes on its source's logical process: under --shards the
            // stubs originate concurrently and only the packets cross shard
            // boundaries, which is exactly the workload shape the sharded
            // backend is built for (~300 events per 1 ms lookahead window).
            std::size_t sent = 0;
            int stagger = 0;
            for (const AsId s : h.stubs) {
              if (s == victim || s == attacker) continue;
              const net::NodeId nid = node_of.at(s);
              for (int k = 0; k < 256; ++k) {
                sim.schedule_for(static_cast<sim::ShardId>(s),
                                 sim::Duration::micros(500 + 100 * (stagger % 7) +
                                                       500 * k),
                                 sim::TaskTag{"bench.hijack", "probe"},
                                 [&net, nid, victim_addr, s] {
                                   net::Packet p;
                                   p.src = net::Address{s, 1, 1, false};
                                   p.dst = victim_addr;
                                   p.proto = net::AppProto::kWeb;
                                   net.node(nid).originate(p);
                                 });
                ++sent;
              }
              ++stagger;
            }
            ctx.add_events(sim.run());

            const std::string k = validation ? "on." : "off.";
            ctx.put(k + "probes", static_cast<double>(sent));
            ctx.put(k + "to_attacker", static_cast<double>(to_attacker));
            ctx.put(k + "to_victim", static_cast<double>(to_victim));
            ctx.put(k + "capture_fraction",
                    sent > 0 ? static_cast<double>(to_attacker) / static_cast<double>(sent)
                             : 0.0);
          }
        };
        bh.scenario(capture, [](const core::SweepResult& res) {
          std::cout << "\nData-plane capture: probes from every stub toward the victim "
                       "prefix\n\n";
          core::Table t({"validation", "probes", "to-victim", "to-attacker",
                         "capture-fraction"});
          for (const char* k : {"off", "on"}) {
            const std::string pre = std::string(k) + ".";
            t.add_row({std::string(k),
                       static_cast<long long>(res.mean(0, pre + "probes")),
                       static_cast<long long>(res.mean(0, pre + "to_victim")),
                       static_cast<long long>(res.mean(0, pre + "to_attacker")),
                       res.mean(0, pre + "capture_fraction")});
          }
          t.print(std::cout);
        });
      });
}
