// Runtime cross-shard access auditor: the dynamic half of the shard-safety
// analysis (`lint sharedlint` in tools/lint is the static half).
//
// The sharded PDES backend (sim/sharded_backend.hpp) partitions the world by
// AS into shards, each with its own event queue, synchronized in barrier rounds
// with link latency as lookahead. That is only sound if an event handler
// never mutates state owned by another shard except by scheduling an event
// — the invariant Shadow enforced structurally before it could split its
// scheduler from its workers. This auditor proves the invariant dynamically:
//
//  - every Node/Link/actor registers under a provisional ShardId (its AS);
//  - the auditor is a sim::Observer: dispatch calls begin_event() so each
//    event starts with an *unclaimed* shard context; the first component
//    whose handler runs claims the event for its shard, and the other
//    observers' end hooks receive that claim;
//  - instrumented mutation points (Node/Link accessors, forwarding-table
//    writes, Ledger transfers) call check_mutation(); a mutation of state
//    owned by a different shard than the claimant fails fast with a causal
//    report (component, event tag, owning vs accessing shard, active span);
//  - state that is *designed* to be shared (the Ledger, merge sinks)
//    registers under kSharedShard: accesses are tallied per accessing
//    shard instead of failing, so the report maps exactly which merge
//    points the PDES refactor must make shard-local-then-merge.
//
// Cost contract: an unaudited run pays one empty-list branch per event in
// the dispatch loop and one null-pointer branch per component hook site
// (the pointer, not this class, is the guard), and the auditor never
// schedules, samples a clock, or draws randomness, so enabling it cannot
// change the event sequence. The report is a pure function of the event
// sequence: byte-identical across runs. An audited hook allocates nothing
// once warm and compares no text: kinds, mutators and shared-state names
// are string literals found by address (the literal contract of
// sim/observer.hpp), a repeat registration is a bitmap test (Network
// registers its whole topology at build, and claim/check_mutation
// re-register on every hop), and a shared-access tally is a cell cached
// per accessing shard.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/span.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

/// One audited mutation that crossed (or legally entered) a shard.
struct ShardAccess {
  std::string component;        ///< owning component kind, e.g. "net.node"
  std::uint64_t id = 0;         ///< component instance id
  ShardId owner = kNoShard;     ///< shard that owns the mutated state
  ShardId accessor = kNoShard;  ///< shard the current event had claimed
  std::string what;             ///< mutator, e.g. "forwarding"
  std::string event_component;  ///< TaskTag of the dispatched event, if any
  std::string event_kind;
  SimTime time;                 ///< sim time of the dispatched event
  SpanId span = kNoSpan;        ///< active causal span, if a tracer is wired
};

/// Thrown on a cross-shard mutation when fail-fast is on. what() carries
/// the full causal report.
class ShardViolation : public std::runtime_error {
 public:
  ShardViolation(const std::string& report, ShardAccess access)
      : std::runtime_error(report), access_(std::move(access)) {}
  const ShardAccess& access() const noexcept { return access_; }

 private:
  ShardAccess access_;
};

class ShardAuditor : public Observer {
 public:
  // --- observer hooks -----------------------------------------------------
  /// Called by dispatch before each event fires: resets the claimed shard
  /// and remembers the event's tag/time for causal reports.
  void begin_event(EventId id, SimTime now, std::size_t queue_depth, const TaskTag& tag,
                   const ScheduleRecord* rec) override;

  /// Called by dispatch after each event's handler returns: closes the
  /// shard context so code running *between* events — or between two run()
  /// calls, as phase-structured benches do — is classified as setup again
  /// rather than inheriting the last event's claimed shard.
  void end_event(ShardId claimed) override;

  /// A lane is an empty auditor with this one's fail-fast setting.
  std::unique_ptr<Observer> make_lane() const override;
  void fold(const Observer& lane) override;

  // Every `kind`, `what` and shared-state name below is a string literal,
  // or text that outlives the auditor and never changes (the literal
  // contract of sim/observer.hpp): the auditor finds its cells by address.

  // --- shard context ------------------------------------------------------
  /// A component's handler announces it is running: claims the current
  /// event for `shard` (first claim wins). A claim from a handler while a
  /// *different* shard holds the event is itself a cross-shard entry and
  /// is reported like a mutation.
  void claim(const char* kind, std::uint64_t id, ShardId shard);
  ShardId current() const noexcept { return current_; }

  /// Declares the remainder of the current event a *control event*: a
  /// deliberately global action (scenario failure injection, route
  /// reconvergence) that the PDES design will run at a barrier, with every
  /// shard quiescent. Mutations and claims are tallied under `name`
  /// instead of checked, so the report enumerates exactly what each
  /// barrier phase must be allowed to touch. Resets at the next event.
  void declare_control_event(const char* name);

  // --- registry -----------------------------------------------------------
  /// Assigns (idempotently: the first registration wins) a component
  /// instance to a shard. Hook sites register lazily on first touch;
  /// Network registers its whole topology eagerly when an auditor is
  /// attached. A repeat registration of an id below kDenseIds is O(1).
  void register_component(const char* kind, std::uint64_t id, ShardId shard);

  // --- checks -------------------------------------------------------------
  /// Audits one state mutation of the component owned by `owner`.
  /// Legal: setup phase (no event in flight), the claiming shard's own
  /// state, or kSharedShard state (tallied). Anything else is a violation:
  /// recorded, and thrown as ShardViolation when fail-fast is on.
  void check_mutation(const char* kind, std::uint64_t id, ShardId owner, const char* what);

  /// Tallies an access to declared-shared state by the current shard.
  void record_shared_access(const char* kind, const char* what);

  // --- configuration ------------------------------------------------------
  /// Throw on the first violation (default). Off = collect and report.
  void set_fail_fast(bool on) noexcept { fail_fast_ = on; }
  bool fail_fast() const noexcept { return fail_fast_; }

  /// Wires a span tracer so violation reports carry the active causal span.
  void set_span_tracer(const SpanTracer* spans) noexcept { spans_ = spans; }

  // --- results ------------------------------------------------------------
  std::size_t events_audited() const noexcept { return events_; }
  std::size_t mutations_checked() const noexcept { return checks_; }
  std::size_t claims() const noexcept { return claims_; }
  std::size_t component_count() const noexcept { return components_.size(); }
  /// Number of distinct shards seen (excluding the shared sentinel).
  std::size_t shard_count() const;
  const std::vector<ShardAccess>& violations() const noexcept { return violations_; }

  /// Human-readable causal report for one access.
  std::string describe(const ShardAccess& a) const;

  /// Machine-readable audit report: registered components per shard,
  /// shared-state access tallies, and violations. All containers are
  /// ordered maps, so the output is byte-identical across runs.
  std::string report_json() const;

  /// Folds another auditor's tallies into this one (sweep runs merge in
  /// run-index order, like profiler/span merges).
  void merge(const ShardAuditor& other);

  /// Folds one escaped violation into the report. Used by harnesses that
  /// catch a fail-fast ShardViolation thrown from an auditor whose tallies
  /// never merged (the exception unwound past the merge point) — the
  /// report artifact must still name the failure.
  void record_violation(const ShardAccess& a) { violations_.push_back(a); }

 private:
  /// Ids at or past this bound are checked in components_ instead.
  static constexpr std::uint64_t kDenseIds = 1u << 20;
  /// One accessing shard's count in a shared_ tally; one way per shard id
  /// modulo kShardWays.
  struct ShardCount {
    ShardId shard = kNoShard;
    std::uint64_t* count = nullptr;  ///< nullptr: way unused
  };
  static constexpr std::size_t kShardWays = 64;
  /// One shared_ tally, found by the (kind, what) literals' addresses.
  struct SharedCell {
    const char* kind;
    const char* what;
    std::map<ShardId, std::uint64_t>* tally = nullptr;
    std::array<ShardCount, kShardWays> shards{};
  };

  SharedCell& shared_cell(const char* kind, const char* what);
  ShardAccess make_access(const char* kind, std::uint64_t id, ShardId owner,
                          const char* what) const;

  ShardId current_ = kNoShard;
  bool in_event_ = false;
  bool in_control_ = false;
  const char* control_name_ = nullptr;
  bool fail_fast_ = true;
  SimTime event_time_;
  const char* event_component_ = nullptr;
  const char* event_kind_ = nullptr;
  const SpanTracer* spans_ = nullptr;

  std::size_t events_ = 0;
  std::size_t checks_ = 0;
  std::size_t claims_ = 0;
  /// (kind, id) -> owning shard; ordered so reports are deterministic.
  std::map<std::pair<std::string, std::uint64_t>, ShardId> components_;
  /// (kind, what) -> accessing shard -> count, for kSharedShard state.
  std::map<std::pair<std::string, std::string>, std::map<ShardId, std::uint64_t>> shared_;
  /// (control-event name, kind/what) -> count, for declared barrier work.
  std::map<std::pair<std::string, std::string>, std::uint64_t> control_;
  std::vector<ShardAccess> violations_;
  /// Registered (kind, id) pairs below kDenseIds: a subset of components_,
  /// held as one bitmap per kind, so a copy keeps it.
  std::map<std::string, std::vector<bool>> known_;
  LocalCache<NamedCells<std::vector<bool>>> known_cells_;
  LocalCache<std::vector<SharedCell>> shared_cells_;
};

/// The shard `auditor` saw claim the current event; kNoShard without one.
inline ShardId claim_of(const ShardAuditor* auditor) noexcept {
  return auditor != nullptr ? auditor->current() : kNoShard;
}

}  // namespace tussle::sim
