// Value flow (§IV-C): "Whatever the compensation, recognize that it must
// flow, just as much as data must flow. ... If this 'value flow' requires a
// protocol, design it."
//
// The Ledger is that protocol's settlement substrate: double-entry balances
// between named parties, with an audit log. PaidTransit prices a
// user-selected source route by charging every off-contract AS its asking
// transit price, then settles through the ledger — the missing piece the
// paper blames for loose source routing's failure.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "routing/source_route.hpp"
#include "sim/shard_audit.hpp"
#include "sim/span.hpp"

namespace tussle::econ {

/// Double-entry balance book. Party names are free-form ("user:42",
/// "as:7"). Balances may go negative (credit), mirroring real interconnect
/// settlement; callers enforce credit limits if they want them.
class Ledger {
 public:
  struct Entry {
    std::string from;
    std::string to;
    double amount = 0;
    std::string memo;
    /// Causal attribution: the span active when the transfer posted (the
    /// forwarding/pricing/mediation decision that triggered it), or
    /// sim::kNoSpan when no tracer was attached.
    sim::SpanId span = sim::kNoSpan;
  };

  /// Moves `amount` from `from` to `to`. Throws std::invalid_argument on a
  /// negative, NaN, or infinite amount and on self-transfers — a settlement
  /// substrate must refuse to corrupt balances rather than record garbage.
  void transfer(const std::string& from, const std::string& to, double amount,
                std::string memo = {});
  double balance(const std::string& party) const;
  const std::vector<Entry>& log() const noexcept { return log_; }
  /// Invariant: all balances sum to zero (conservation of value).
  double total() const;

  /// Attaches a span tracer: each transfer then records the active span id
  /// in its audit-log entry and emits a zero-length "transfer" span under
  /// it, causally linking every settlement to the decision that caused it.
  void set_span_tracer(sim::SpanTracer* spans) noexcept { spans_ = spans; }
  sim::SpanTracer* span_tracer() const noexcept { return spans_; }

  /// Attaches a shard auditor: the ledger is declared *shared* state (value
  /// must flow between shards by design), so transfers are tallied per
  /// accessing shard rather than checked — the report then maps which
  /// shards settle, the input for making settlement a merge step in PDES.
  void set_auditor(sim::ShardAuditor* auditor) noexcept { auditor_ = auditor; }
  sim::ShardAuditor* auditor() const noexcept { return auditor_; }

 private:
  std::map<std::string, double> balances_;
  std::vector<Entry> log_;
  sim::SpanTracer* spans_ = nullptr;
  sim::ShardAuditor* auditor_ = nullptr;
};

/// Prices and settles paid source routes.
class PaidTransit {
 public:
  PaidTransit(const routing::AsGraph& graph, Ledger& ledger)
      : builder_(graph), ledger_(&ledger) {}

  /// Asking price per off-contract packet-carriage contract, per AS.
  void set_transit_price(routing::AsId as, double price) { prices_[as] = price; }
  double transit_price(routing::AsId as) const;

  struct Quote {
    std::vector<routing::AsId> path;
    std::vector<routing::AsId> paid_ases;  ///< who must be compensated
    double total_price = 0;
  };

  /// Quotes a specific path. A path with no off-contract AS costs zero.
  Quote quote(const std::vector<routing::AsId>& path) const;

  /// Quotes the cheapest of the k shortest paths between two ASes.
  std::optional<Quote> best_quote(routing::AsId from, routing::AsId to, std::size_t k) const;

  /// Settles a quote: `payer` pays each off-contract AS its price.
  /// Returns the amount moved.
  double settle(const std::string& payer, const Quote& q);

 private:
  routing::SourceRouteBuilder builder_;
  Ledger* ledger_;
  std::map<routing::AsId, double> prices_;
  double default_price_ = 1.0;
};

}  // namespace tussle::econ
