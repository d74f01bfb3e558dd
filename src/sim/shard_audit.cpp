#include "sim/shard_audit.hpp"

#include <cstring>

#include "sim/html.hpp"
#include "sim/json.hpp"

namespace tussle::sim {

void ShardAuditor::begin_event(EventId /*id*/, SimTime now, std::size_t /*queue_depth*/,
                               const TaskTag& tag, const ScheduleRecord* /*rec*/) {
  ++events_;
  current_ = kNoShard;
  in_event_ = true;
  in_control_ = false;
  control_name_ = nullptr;
  event_time_ = now;
  event_component_ = tag.component;
  event_kind_ = tag.kind;
}

void ShardAuditor::end_event(ShardId /*claimed*/) {
  // Without this, claims made *between* runs (phase-two scenario setup
  // after a sim.run() has drained) would be attributed to whichever shard
  // the final event of the previous run had claimed.
  in_event_ = false;
  in_control_ = false;
  control_name_ = nullptr;
  current_ = kNoShard;
}

std::unique_ptr<Observer> ShardAuditor::make_lane() const {
  auto lane = std::make_unique<ShardAuditor>();
  lane->set_fail_fast(fail_fast_);
  return lane;
}

void ShardAuditor::fold(const Observer& lane) { merge(static_cast<const ShardAuditor&>(lane)); }

void ShardAuditor::declare_control_event(const char* name) {
  in_control_ = true;
  control_name_ = name;
}

void ShardAuditor::register_component(const char* kind, std::uint64_t id, ShardId shard) {
  std::vector<bool>& known = known_cells_->get(known_, kind);
  if (id < known.size() && known[id]) return;
  components_.emplace(std::make_pair(std::string(kind), id), shard);
  if (id >= kDenseIds) return;
  if (id >= known.size()) known.resize(id + 1);
  known[id] = true;
}

ShardAccess ShardAuditor::make_access(const char* kind, std::uint64_t id, ShardId owner,
                                      const char* what) const {
  ShardAccess a;
  a.component = kind;
  a.id = id;
  a.owner = owner;
  a.accessor = current_;
  a.what = what;
  a.event_component = event_component_ != nullptr ? event_component_ : "";
  a.event_kind = event_kind_ != nullptr ? event_kind_ : "";
  a.time = event_time_;
  a.span = spans_ != nullptr ? spans_->current() : kNoSpan;
  return a;
}

std::string ShardAuditor::describe(const ShardAccess& a) const {
  std::string out = "shard-audit violation: " + a.component + " #" +
                    std::to_string(a.id) + " owned by shard " + shard_label(a.owner) +
                    " mutated from shard " + shard_label(a.accessor) +
                    " without an event-queue hop\n";
  out += "  mutator: " + a.what + "\n";
  out += "  event:   " +
         (a.event_component.empty() && a.event_kind.empty()
              ? std::string("(untagged)")
              : a.event_component + "/" + a.event_kind) +
         " at " + a.time.to_string() + "\n";
  out += "  span:    " + (a.span == kNoSpan ? std::string("(none)")
                                            : "#" + std::to_string(a.span));
  return out;
}

void ShardAuditor::claim(const char* kind, std::uint64_t id, ShardId shard) {
  register_component(kind, id, shard);
  if (!in_event_) return;  // setup code runs outside any shard context
  if (in_control_) {
    control_[std::make_pair(std::string(control_name_), std::string(kind) + "/enter")] += 1;
    return;
  }
  if (current_ == kNoShard) {
    current_ = shard;
    ++claims_;
    return;
  }
  if (current_ == shard || shard == kSharedShard) return;
  // A handler entered a component of another shard synchronously — the
  // same hazard as mutating its state directly.
  ShardAccess a = make_access(kind, id, shard, "enter");
  violations_.push_back(a);
  if (fail_fast_) {
    std::string report = describe(a);  // before the move: arg order is unspecified
    throw ShardViolation(report, std::move(a));
  }
}

void ShardAuditor::check_mutation(const char* kind, std::uint64_t id, ShardId owner,
                                  const char* what) {
  ++checks_;
  register_component(kind, id, owner);
  if (owner == kSharedShard) {
    record_shared_access(kind, what);
    return;
  }
  if (!in_event_) return;  // construction / topology wiring phase
  if (in_control_) {
    control_[std::make_pair(std::string(control_name_), std::string(kind) + "/" + what)] += 1;
    return;
  }
  if (current_ == kNoShard) {
    // First touch claims the event for the owner's shard.
    current_ = owner;
    ++claims_;
    return;
  }
  if (current_ == owner) return;
  ShardAccess a = make_access(kind, id, owner, what);
  violations_.push_back(a);
  if (fail_fast_) {
    std::string report = describe(a);  // before the move: arg order is unspecified
    throw ShardViolation(report, std::move(a));
  }
}

void ShardAuditor::record_shared_access(const char* kind, const char* what) {
  SharedCell& cell = shared_cell(kind, what);
  ShardCount& way = cell.shards[current_ % kShardWays];
  if (way.count == nullptr || way.shard != current_) {
    way = ShardCount{current_, &(*cell.tally)[current_]};
  }
  *way.count += 1;
}

ShardAuditor::SharedCell& ShardAuditor::shared_cell(const char* kind, const char* what) {
  std::vector<SharedCell>& cells = *shared_cells_;
  for (SharedCell& c : cells) {
    if (c.kind == kind && c.what == what) return c;
  }
  // Literals at new addresses: their text names a tally seen, or a new one.
  std::map<ShardId, std::uint64_t>* tally = nullptr;
  for (const SharedCell& c : cells) {
    if (std::strcmp(c.kind, kind) == 0 && std::strcmp(c.what, what) == 0) {
      tally = c.tally;
      break;
    }
  }
  if (tally == nullptr) {
    tally = &shared_.try_emplace(std::make_pair(std::string(kind), std::string(what)))
                 .first->second;
  }
  cells.push_back(SharedCell{kind, what, tally});
  return cells.back();
}

std::size_t ShardAuditor::shard_count() const {
  std::map<ShardId, bool> seen;
  for (const auto& [key, shard] : components_) {
    if (shard != kSharedShard && shard != kNoShard) seen.emplace(shard, true);
  }
  return seen.size();
}

void ShardAuditor::merge(const ShardAuditor& other) {
  events_ += other.events_;
  checks_ += other.checks_;
  claims_ += other.claims_;
  for (const auto& [key, shard] : other.components_) components_.emplace(key, shard);
  for (const auto& [key, tally] : other.shared_) {
    auto& mine = shared_[key];
    for (const auto& [shard, count] : tally) mine[shard] += count;
  }
  for (const auto& [key, count] : other.control_) control_[key] += count;
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
}

std::string ShardAuditor::report_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("shard-audit");
  w.key("events_audited").value(static_cast<std::uint64_t>(events_));
  w.key("mutations_checked").value(static_cast<std::uint64_t>(checks_));
  w.key("claims").value(static_cast<std::uint64_t>(claims_));
  w.key("shards").value(static_cast<std::uint64_t>(shard_count()));

  // Components grouped per shard, both levels in ordered-map order.
  std::map<ShardId, std::map<std::string, std::uint64_t>> per_shard;
  for (const auto& [key, shard] : components_) per_shard[shard][key.first] += 1;
  w.key("components").begin_array();
  for (const auto& [shard, kinds] : per_shard) {
    w.begin_object();
    w.key("shard").value(shard_label(shard));
    w.key("kinds").begin_object();
    for (const auto& [kind, count] : kinds) w.key(kind).value(count);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("shared_access").begin_array();
  for (const auto& [key, tally] : shared_) {
    w.begin_object();
    w.key("component").value(key.first);
    w.key("what").value(key.second);
    w.key("by_shard").begin_object();
    for (const auto& [shard, count] : tally) w.key(shard_label(shard)).value(count);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("control_events").begin_array();
  for (const auto& [key, count] : control_) {
    w.begin_object();
    w.key("event").value(key.first);
    w.key("touched").value(key.second);
    w.key("count").value(count);
    w.end_object();
  }
  w.end_array();

  w.key("violations").begin_array();
  for (const ShardAccess& a : violations_) {
    w.begin_object();
    w.key("component").value(a.component);
    w.key("id").value(a.id);
    w.key("owner").value(shard_label(a.owner));
    w.key("accessor").value(shard_label(a.accessor));
    w.key("what").value(a.what);
    w.key("event").value(a.event_component + "/" + a.event_kind);
    w.key("t_ns").value(static_cast<std::int64_t>(a.time.as_nanos()));
    w.key("span").value(static_cast<std::uint64_t>(a.span));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace tussle::sim
