// Cross-module property tests: oracle comparisons and fuzz-style sweeps
// that don't belong to any single unit suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <set>

#include "econ/market.hpp"
#include "policy/expr.hpp"
#include "routing/path_vector.hpp"
#include "routing/source_route.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace tussle {
namespace {

// ---------------------------------------------------------------------------
// Yen's k-shortest-paths vs. brute-force enumeration of all simple paths.
// ---------------------------------------------------------------------------

void all_simple_paths(const routing::AsGraph& g, routing::AsId cur, routing::AsId to,
                      std::vector<routing::AsId>& stack, std::set<routing::AsId>& seen,
                      std::vector<std::vector<routing::AsId>>& out) {
  if (cur == to) {
    out.push_back(stack);
    return;
  }
  for (auto [nbr, rel] : g.neighbors(cur)) {
    (void)rel;
    if (seen.count(nbr)) continue;
    seen.insert(nbr);
    stack.push_back(nbr);
    all_simple_paths(g, nbr, to, stack, seen, out);
    stack.pop_back();
    seen.erase(nbr);
  }
}

class KShortestOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KShortestOracle, MatchesBruteForcePrefix) {
  sim::Rng rng(GetParam());
  // Small random graph so brute force stays tractable.
  routing::AsGraph g;
  const int n = 7;
  for (routing::AsId a = 1; a <= n; ++a) g.add_as(a);
  for (routing::AsId a = 1; a <= n; ++a) {
    for (routing::AsId b = a + 1; b <= n; ++b) {
      if (rng.bernoulli(0.45) && !g.relationship(a, b)) {
        if (rng.bernoulli(0.5)) {
          g.add_customer_provider(a, b);
        } else {
          g.add_peering(a, b);
        }
      }
    }
  }
  routing::SourceRouteBuilder builder(g);
  const routing::AsId from = 1, to = n;
  std::vector<std::vector<routing::AsId>> truth;
  std::vector<routing::AsId> stack{from};
  std::set<routing::AsId> seen{from};
  all_simple_paths(g, from, to, stack, seen, truth);
  std::stable_sort(truth.begin(), truth.end(),
                   [](const auto& a, const auto& b) {
                     if (a.size() != b.size()) return a.size() < b.size();
                     return a < b;
                   });

  auto yen = builder.k_shortest_paths(from, to, 5);
  ASSERT_EQ(yen.size(), std::min<std::size_t>(5, truth.size()));
  for (std::size_t i = 0; i < yen.size(); ++i) {
    // Lengths must match the true i-th shortest; the concrete path must be
    // one of the true paths of that length.
    EXPECT_EQ(yen[i].size(), truth[i].size()) << "rank " << i << " seed " << GetParam();
    EXPECT_NE(std::find(truth.begin(), truth.end(), yen[i]), truth.end());
  }
  // No duplicates.
  std::set<std::vector<routing::AsId>> uniq(yen.begin(), yen.end());
  EXPECT_EQ(uniq.size(), yen.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KShortestOracle, ::testing::Values(3, 9, 27, 81, 243));

// ---------------------------------------------------------------------------
// EventQueue fuzz vs. a sorted-multiset oracle, with random cancellation.
// ---------------------------------------------------------------------------

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, MatchesSortedOracle) {
  sim::Rng rng(GetParam());
  sim::EventQueue q;
  // Oracle: multiset of (time, insertion-seq) for live events.
  std::vector<std::pair<std::int64_t, int>> live;
  std::vector<std::pair<sim::EventId, std::pair<std::int64_t, int>>> handles;
  int seq = 0;
  for (int op = 0; op < 800; ++op) {
    const double r = rng.uniform();
    if (r < 0.6 || q.empty()) {
      const std::int64_t t = rng.uniform_int(0, 50);
      auto id = q.push(sim::SimTime::nanos(t), [] {});
      live.emplace_back(t, seq);
      handles.emplace_back(id, std::make_pair(t, seq));
      ++seq;
    } else if (r < 0.75 && !handles.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const bool cancelled = q.cancel(handles[idx].first);
      auto it = std::find(live.begin(), live.end(), handles[idx].second);
      EXPECT_EQ(cancelled, it != live.end());
      if (it != live.end()) live.erase(it);
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      auto popped = q.pop();
      auto it = std::min_element(live.begin(), live.end());
      ASSERT_NE(it, live.end());
      EXPECT_EQ(popped.time.as_nanos(), it->first);
      live.erase(it);
    }
    EXPECT_EQ(q.size(), live.size());
  }
}

// Cancel-heavy mixes: every id ever handed out stays cancellable, so the
// mix cancels fired events, cancels twice, and cancels stale ids whose slot
// a later event now occupies. Times come from a narrow window, so ties are
// common and cancelled events often sit on top of the heap. The oracle is
// the set of live (time, push order) pairs.
TEST_P(EventQueueFuzz, CancelHeavyMixMatchesOracle) {
  sim::Rng rng(GetParam());
  sim::EventQueue q;
  struct Handle {
    sim::EventId id;
    std::int64_t time = 0;
    bool live = true;
  };
  std::vector<Handle> handles;  // index = push order
  std::set<std::pair<std::int64_t, std::size_t>> live;
  std::vector<std::size_t> fired_order;
  std::map<std::uint32_t, std::size_t> occupant;  // slot -> latest push into it
  static const char* const kKinds[] = {"a", "b", "c", "d", "e"};
  std::int64_t now = 0;
  int stale_reused = 0, fired_cancels = 0, double_cancels = 0, tombstone_tops = 0;
  for (int op = 0; op < 4000; ++op) {
    const double r = rng.uniform();
    if (r < 0.4 || live.empty()) {
      const std::int64_t t = now + rng.uniform_int(0, 8);
      const std::size_t k = handles.size();
      const sim::EventId id =
          q.push(sim::SimTime::nanos(t), [&fired_order, k] { fired_order.push_back(k); },
                 sim::TaskTag{"fuzz", kKinds[k % 5]});
      EXPECT_EQ(id.value, k + 1);
      handles.push_back({id, t, true});
      live.emplace(t, k);
      occupant[id.slot] = k;
    } else if (r < 0.75) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      Handle& h = handles[k];
      const bool was_live = live.count({h.time, k}) != 0;
      if (!was_live) {
        const bool cancelled_before = !h.live;
        if (occupant[h.id.slot] != k) {
          ++stale_reused;
        } else if (cancelled_before) {
          ++double_cancels;
        } else {
          ++fired_cancels;
        }
      }
      EXPECT_EQ(q.cancel(h.id), was_live) << "push " << k;
      if (was_live) {
        if (live.begin()->second == k) ++tombstone_tops;
        live.erase({h.time, k});
        h.live = false;
      }
    } else {
      const auto want = *live.begin();
      auto p = q.pop();
      EXPECT_EQ(p.time.as_nanos(), want.first);
      EXPECT_EQ(p.id, handles[want.second].id);
      EXPECT_STREQ(p.tag.kind, kKinds[want.second % 5]);
      p.action();
      ASSERT_FALSE(fired_order.empty());
      EXPECT_EQ(fired_order.back(), want.second);
      live.erase(live.begin());
      now = want.first;
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
    if (!live.empty()) {
      ASSERT_EQ(q.next_time().as_nanos(), live.begin()->first);
    }
  }
  // The mix must actually reach every case it exists to cover.
  EXPECT_GT(stale_reused, 0);
  EXPECT_GT(fired_cancels, 0);
  EXPECT_GT(double_cancels, 0);
  EXPECT_GT(tombstone_tops, 0);
}

// Owner-namespaced ids (the sharded backend's scheme) keep the value
// base + seq + 1 through pops, cancels and slot reuse, and a queue never
// cancels an id from another owner's range. The queue grows past 1500
// pending events, so slots beyond the arena's doubling blocks are in play,
// and pops must still come out in (time, id) order.
TEST_P(EventQueueFuzz, IdsAreBasePlusSeqPlusOne) {
  sim::Rng rng(GetParam());
  const std::uint64_t owner = GetParam() % 7;
  const std::uint64_t base = (owner + 1) << 40;
  sim::EventQueue q;
  q.set_id_base(base);
  sim::EventQueue other;
  other.set_id_base((owner + 2) << 40);
  std::vector<sim::EventId> ids;
  std::int64_t now = 0;
  std::pair<std::int64_t, std::uint64_t> last{-1, 0};
  std::size_t peak = 0;
  for (std::uint64_t seq = 0; seq < 3000; ++seq) {
    const sim::EventId id = q.push(sim::SimTime::nanos(now + rng.uniform_int(0, 30)), [] {});
    EXPECT_EQ(id.value, base + seq + 1);
    EXPECT_EQ(id.value >> 40, owner + 1);
    ids.push_back(id);
    EXPECT_FALSE(other.cancel(id));
    if (rng.bernoulli(0.3)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      q.cancel(ids[pick]);
    }
    if (rng.bernoulli(0.3) && !q.empty()) {
      const auto p = q.pop();
      EXPECT_GT(p.id.value, base);
      EXPECT_LE(p.id.value, base + seq + 1);
      const std::pair at{p.time.as_nanos(), p.id.value};
      EXPECT_LT(last, at);
      last = at;
      now = at.first;
    }
    peak = std::max(peak, q.size());
  }
  EXPECT_GT(peak, 1500u);
  EXPECT_FALSE(q.cancel(sim::EventId{}));
  EXPECT_FALSE(q.cancel(sim::EventId{base}));
  EXPECT_FALSE(q.cancel(sim::EventId{base + 3001}));
}

// Wide spans. The mixes above keep every pending time within 50 ns, and
// their queues stay shallow, so they never build a calendar. Here each round
// fills the queue far past EventQueue::kDeep (a spill, then a calendar at the
// first pop), churns at that depth through several rebuilds, and drains it
// below kShallow (back to one plain heap). A round's times centre on its own
// scale, from 1 ns to an hour, with bursts of equal times, times equal to a
// recent push's, SimTime::max(), the earliest representable time, negative
// times and times before the last pop. Far timers are cancelled and re-armed
// at every pop, as AimdFlow's retransmission timers are, and cancels hit
// live, fired, stale and already-cancelled ids (and the earliest event, which
// a spill sets aside for next_time()). After every operation the
// queue must agree with the set of live (time, push order) pairs, and every
// live event must hold a slot of its own: a slot freed twice, or freed while
// its event is pending, would be handed out again while still held.
TEST_P(EventQueueFuzz, WideSpanMatchesOracle) {
  constexpr std::int64_t kLatest = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kEarliest = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHour = 3'600'000'000'000;
  constexpr std::int64_t kScales[] = {1, 30, 1'000, 1'000'000, 1'000'000'000, kHour};
  constexpr std::size_t kTimers = 8;
  static_assert(sim::EventQueue::kDeep < 1500 && sim::EventQueue::kShallow > 40);

  sim::Rng rng(GetParam());
  sim::EventQueue q;
  std::vector<sim::EventId> ids;  // index = push order
  std::vector<std::int64_t> times;
  std::vector<bool> cancelled;
  std::set<std::pair<std::int64_t, std::size_t>> live;
  std::map<std::uint32_t, std::size_t> holder;  // slot -> the live event in it
  std::int64_t now = 0;
  int live_cancels = 0, fired_cancels = 0, stale_cancels = 0, double_cancels = 0;
  std::size_t pops = 0;

  const auto add = [](std::int64_t t, std::int64_t d) {  // saturating t + d
    if (d > 0 && t > kLatest - d) return kLatest;
    if (d < 0 && t < kEarliest - d) return kEarliest;
    return t + d;
  };
  const auto check = [&] {
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
    if (!live.empty()) {
      ASSERT_EQ(q.next_time().as_nanos(), live.begin()->first);
    }
  };
  const auto push = [&](std::int64_t t) {
    const std::size_t k = ids.size();
    const sim::EventId id = q.push(sim::SimTime::nanos(t), [] {});
    EXPECT_EQ(id.value, k + 1);
    const auto [it, fresh] = holder.emplace(id.slot, k);
    EXPECT_TRUE(fresh) << "push " << k << " got slot " << id.slot << ", held by push "
                       << it->second;
    ids.push_back(id);
    times.push_back(t);
    cancelled.push_back(false);
    live.emplace(t, k);
    return k;
  };
  const auto cancel = [&](std::size_t k) {
    const bool was_live = live.erase({times[k], k}) != 0;
    const auto held = holder.find(ids[k].slot);
    if (was_live) {
      ++live_cancels;
    } else if (held != holder.end() && held->second != k) {
      ++stale_cancels;
    } else if (cancelled[k]) {
      ++double_cancels;
    } else {
      ++fired_cancels;
    }
    EXPECT_EQ(q.cancel(ids[k]), was_live) << "push " << k;
    if (was_live) {
      holder.erase(held);
      cancelled[k] = true;
    }
  };
  const auto pop = [&] {
    const auto want = *live.begin();
    const auto p = q.pop();
    ASSERT_EQ(p.time.as_nanos(), want.first);
    ASSERT_EQ(p.id, ids[want.second]) << "push " << want.second;
    live.erase(live.begin());
    holder.erase(p.id.slot);
    now = want.first;
    ++pops;
  };
  // A time around `now` at `scale`, or one of the edge cases.
  const auto draw = [&](std::int64_t scale) -> std::int64_t {
    const double r = rng.uniform();
    if (r < 0.003) return kLatest;
    if (r < 0.0035) return kEarliest;
    if (r < 0.02) return add(now, rng.uniform_int(0, kHour));
    if (r < 0.07) return add(now, -rng.uniform_int(0, scale));
    if (r < 0.17 && !times.empty()) {
      const auto back = std::min<std::int64_t>(64, static_cast<std::int64_t>(times.size()) - 1);
      return times[times.size() - 1 - static_cast<std::size_t>(rng.uniform_int(0, back))];
    }
    return add(now, rng.uniform_int(0, scale));
  };
  const auto push_some = [&](std::int64_t scale) {
    const std::int64_t t = draw(scale);
    const std::int64_t n = rng.bernoulli(0.1) ? rng.uniform_int(2, 8) : 1;  // a burst
    for (std::int64_t i = 0; i < n; ++i) push(t);
  };
  const auto cancel_some = [&] {
    if (ids.empty()) return;
    const auto n = static_cast<std::int64_t>(ids.size());
    const std::int64_t k = rng.bernoulli(0.5) ? rng.uniform_int(std::max<std::int64_t>(0, n - 200), n - 1)
                                              : rng.uniform_int(0, n - 1);
    cancel(static_cast<std::size_t>(k));
  };

  std::vector<std::size_t> timers;
  for (int round = 0; round < 8; ++round) {
    const std::int64_t scale =
        kScales[(static_cast<std::size_t>(round) + GetParam()) % std::size(kScales)];
    if (live.empty()) now = rng.uniform_int(-scale, scale);
    // Fill, in some rounds popping now and then (so a spilled heap builds
    // its calendar early), in others not at all.
    const auto depth = static_cast<std::size_t>(rng.uniform_int(1500, 3000));
    const double pop_share = rng.bernoulli(0.5) ? 0.05 : 0.0;
    while (live.size() < depth) {
      const double r = rng.uniform();
      if (r < pop_share && !live.empty()) {
        pop();
      } else if (r < pop_share + 0.02 && !live.empty()) {
        cancel(live.begin()->second);  // the earliest, set aside by a spill
      } else {
        push_some(scale);
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Churn at depth: every pop schedules a successor and re-arms a timer.
    timers.clear();
    for (std::size_t j = 0; j < kTimers; ++j) timers.push_back(push(add(now, 1000 * scale)));
    for (int op = 0; op < 8000; ++op) {
      const double r = rng.uniform();
      if (r < 0.55) {
        pop();
        push_some(scale);
        std::size_t& timer = timers[pops % kTimers];
        cancel(timer);
        timer = push(add(now, 1000 * scale));
      } else if (r < 0.8) {
        push_some(scale);
      } else {
        cancel_some();
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain below kShallow, or to empty (back to a plain heap).
    const auto rest = static_cast<std::size_t>(rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 40));
    while (live.size() > rest) {
      if (rng.bernoulli(0.1)) {
        cancel_some();
      } else {
        pop();
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  while (!live.empty()) {
    pop();
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(live_cancels, 0);
  EXPECT_GT(fired_cancels, 0);
  EXPECT_GT(stale_cancels, 0);
  EXPECT_GT(double_cancels, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Policy-language fuzz: randomly generated well-typed expressions compile
// and evaluate without crashing; boolean results are stable across repeated
// evaluation (purity).
// ---------------------------------------------------------------------------

std::string gen_number_expr(sim::Rng& rng, int depth);
std::string gen_bool_expr(sim::Rng& rng, int depth);

std::string gen_number_expr(sim::Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.4)) {
    if (rng.bernoulli(0.5)) return std::to_string(rng.uniform_int(1, 99));
    return rng.bernoulli(0.5) ? "size" : "ttl";
  }
  static const char* ops[] = {" + ", " - ", " * "};
  return "(" + gen_number_expr(rng, depth - 1) +
         ops[rng.uniform_int(0, 2)] + gen_number_expr(rng, depth - 1) + ")";
}

std::string gen_bool_expr(sim::Rng& rng, int depth) {
  if (depth <= 0) {
    switch (rng.uniform_int(0, 3)) {
      case 0: return "encrypted";
      case 1: return "proto == 'web'";
      case 2: return "true";
      default: return "size > " + std::to_string(rng.uniform_int(0, 2000));
    }
  }
  switch (rng.uniform_int(0, 4)) {
    case 0: return "(" + gen_bool_expr(rng, depth - 1) + " and " +
                   gen_bool_expr(rng, depth - 1) + ")";
    case 1: return "(" + gen_bool_expr(rng, depth - 1) + " or " +
                   gen_bool_expr(rng, depth - 1) + ")";
    case 2: return "not " + gen_bool_expr(rng, depth - 1);
    case 3: return "(" + gen_number_expr(rng, depth - 1) + " <= " +
                   gen_number_expr(rng, depth - 1) + ")";
    default: return "proto in ['web', 'mail', 'p2p']";
  }
}

class PolicyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyFuzz, GeneratedExpressionsCompileAndEvaluate) {
  sim::Rng rng(GetParam());
  policy::Ontology onto;
  onto.declare("size", policy::ValueType::kNumber);
  onto.declare("ttl", policy::ValueType::kNumber);
  onto.declare("encrypted", policy::ValueType::kBool);
  onto.declare("proto", policy::ValueType::kString);
  policy::Context ctx;
  ctx.set("size", 700.0);
  ctx.set("ttl", 64.0);
  ctx.set("encrypted", false);
  ctx.set("proto", "web");

  for (int i = 0; i < 200; ++i) {
    const std::string src = gen_bool_expr(rng, 4);
    policy::Expr e = policy::Expr::compile(src, onto);
    EXPECT_EQ(e.result_type(), policy::ValueType::kBool) << src;
    const bool first = e.test(ctx);
    EXPECT_EQ(e.test(ctx), first) << "impure evaluation: " << src;
    for (const auto& attr : e.referenced_attributes()) {
      EXPECT_TRUE(onto.defines(attr)) << attr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyFuzz, ::testing::Values(5, 50, 500));

// ---------------------------------------------------------------------------
// Path-vector structural invariants on random hierarchies.
// ---------------------------------------------------------------------------

class PathVectorInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathVectorInvariants, RoutesAreInternallyConsistent) {
  sim::Rng rng(GetParam());
  auto h = routing::make_hierarchy(rng, 2, 6, 14);
  routing::PathVector pv(h.graph);
  for (routing::AsId dest : {h.stubs[0], h.tier2[0]}) {
    auto out = pv.compute(dest);
    ASSERT_TRUE(out.converged);
    for (const auto& [src, route] : out.routes) {
      ASSERT_TRUE(route.valid());
      EXPECT_EQ(route.as_path.front(), src);
      EXPECT_EQ(route.as_path.back(), dest);
      if (route.as_path.size() > 1) {
        EXPECT_EQ(route.as_path[1], route.next_hop);
      }
      // Consecutive path elements must share an edge; no repeats.
      std::set<routing::AsId> uniq(route.as_path.begin(), route.as_path.end());
      EXPECT_EQ(uniq.size(), route.as_path.size());
      for (std::size_t i = 0; i + 1 < route.as_path.size(); ++i) {
        EXPECT_TRUE(
            h.graph.relationship(route.as_path[i], route.as_path[i + 1]).has_value());
      }
      // Route consistency (the path actually exists hop by hop): the next
      // hop's route must be the tail of mine under converged path vector.
      if (route.as_path.size() > 1) {
        const auto& nh = out.routes.at(route.next_hop);
        std::vector<routing::AsId> tail(route.as_path.begin() + 1, route.as_path.end());
        EXPECT_EQ(nh.as_path, tail);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathVectorInvariants, ::testing::Values(4, 8, 15, 16, 23, 42));

// ---------------------------------------------------------------------------
// Market invariants under random configurations.
// ---------------------------------------------------------------------------

class MarketInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarketInvariants, AccountingAlwaysConsistent) {
  sim::Rng seed_rng(GetParam());
  econ::MarketConfig cfg;
  cfg.consumers = 100 + static_cast<std::size_t>(seed_rng.uniform_int(0, 300));
  cfg.switching_cost = seed_rng.uniform(0, 5);
  cfg.periods = 150;
  const auto n_providers = static_cast<std::size_t>(seed_rng.uniform_int(1, 6));
  std::vector<econ::ProviderConfig> providers(n_providers);
  for (std::size_t i = 0; i < n_providers; ++i) {
    providers[i].name = "p" + std::to_string(i);
    providers[i].marginal_cost = seed_rng.uniform(1, 4);
    providers[i].initial_price = providers[i].marginal_cost + seed_rng.uniform(0, 5);
  }
  sim::Rng rng(GetParam() * 7 + 1);
  econ::Market m(cfg, providers, rng);
  auto r = m.run();

  double share_total = 0;
  for (double s : r.final_shares) {
    EXPECT_GE(s, 0.0);
    share_total += s;
  }
  EXPECT_LE(share_total, static_cast<double>(cfg.consumers) + 0.5);
  for (std::size_t i = 0; i < r.final_prices.size(); ++i) {
    EXPECT_GE(r.final_prices[i], providers[i].marginal_cost - 1e-9);
  }
  EXPECT_GE(r.subscribed_fraction, 0.0);
  EXPECT_LE(r.subscribed_fraction, 1.0);
  if (share_total > 0) {
    EXPECT_LE(r.hhi, 1.0 + 1e-12);
    EXPECT_GE(r.hhi, 1.0 / static_cast<double>(n_providers) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarketInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace tussle
