// The benchmark's worlds, built only through the library's public APIs.
//
// A round runs one core::run_sweep on one thread over a fixed set of
// replicas drawn from the seed, so every round of a run repeats exactly the
// same simulated work. Each replica builds its world(s) from its own RNG
// stream, times set-up, Simulator::run and teardown from outside, checks
// the outcome, and records it in a WorldResult. When a LayerTrace is given,
// calls into each layer are also timed and counted one by one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

namespace core = tussle::core;
namespace sim = tussle::sim;

enum class Workload { kCapture, kAimdMiddlebox, kCaptureObserved };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Host-side timers and counters the traced run wraps around calls into
/// each layer, summed over a round.
struct LayerTrace {
  double compute_s = 0;   ///< PathVector::compute_with_origins, LinkState::install_routes
  std::uint64_t routing_rounds = 0;
  double build_s = 0;     ///< Network/Node construction, FIB, address and filter install
  double schedule_s = 0;  ///< scheduling the initial events
  double filter_s = 0;    ///< inside make_packet_filter's function
  std::uint64_t filter_calls = 0;
  double dispatch_s = 0;  ///< inside AppMux::dispatch
  std::uint64_t dispatch_calls = 0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t run_alloc_bytes = 0;
};

/// One simulated world (one Simulator and Network).
struct WorldResult {
  // Simulated outcomes: these, and only these, feed the digest.
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_filter = 0;
  std::uint64_t dropped_other = 0;  ///< ttl, no route, link down
  std::uint64_t to_victim = 0;      ///< capture: probes the legitimate origin answered
  std::uint64_t to_attacker = 0;    ///< capture: probes the hijacker answered
  std::uint64_t flows_finished = 0; ///< aimd: flows that delivered every segment
  std::uint64_t segments = 0;       ///< aimd: segments the flows had to deliver
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::int64_t completion_ns = 0;   ///< aimd: sum of flow completion times
  std::int64_t latency_ns = 0;      ///< sum of delivery latencies
  std::int64_t end_ns = 0;          ///< simulated time when the run ended

  // Engine work and host time: never part of the digest, because a
  // faster engine may change them without changing what was simulated.
  std::uint64_t flows = 0;
  std::uint64_t events = 0;
  std::uint64_t initial_pending = 0;
  std::uint64_t windows = 0;  ///< sharded barrier windows
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;

  std::string error;  ///< empty when the world ran and passed its checks
};

/// Equality of the simulated outcomes (the digest fields).
bool same_outcome(const WorldResult& a, const WorldResult& b);

/// FNV-1a over the outcome fields of every world, in world order.
std::uint64_t digest(const std::vector<WorldResult>& worlds);

/// The observers the capture-observed workload attaches.
core::SweepOptions observed_options();

struct RoundResult {
  std::vector<WorldResult> worlds;  ///< replica order; two worlds per capture replica
  double sweep_s = 0;               ///< wall time of run_sweep
  double body_s = 0;                ///< summed wall time of the scenario bodies
  core::SweepResult sweep;          ///< per-run observers, when attached
};

/// Runs `replicas` replicas of the workload's worlds on one thread, with
/// the observers and backend `opts` asks for (its seed, job and replica
/// fields are overridden). capture and capture-observed build the same
/// worlds. `trace`, when not null, receives the round's layer timers.
RoundResult run_round(Workload w, std::uint64_t seed, std::size_t replicas,
                      core::SweepOptions opts = {}, LayerTrace* trace = nullptr);

}  // namespace perfbench
