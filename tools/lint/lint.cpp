// lint — static checks for the tussle-net source tree, in two rule sets.
//
//   detlint     determinism. The simulator's headline property is bit-exact
//               replay: the same seed must produce the same event ordering
//               and the same stats on every run, on every compiler. These
//               checks flag constructs that silently break that contract.
//   sharedlint  shard safety. The sharded backend (sim/sharded_backend.hpp)
//               partitions the world by AS into shards, each with its own
//               event queue. That split is only sound if no event handler
//               reaches into state owned by another shard except via a
//               scheduled event — the invariant Shadow had to establish
//               before its scheduler/worker split. These checks are the
//               static half of the shard-safety analysis
//               (sim/shard_audit.hpp is the runtime half): they inventory
//               every construct that would be shared mutable state, or a
//               back door between actors, once the world is sharded.
//
// Both rule sets share one comment/string stripper, one brace-scope walk,
// one allowlist format and one driver. Each check belongs to exactly one
// rule set, and a finding is reported unless an allowlist entry records
// that the use was audited and found safe.
//
// detlint checks:
//   banned-random      std::random_device / rand() / wall-clock time /
//                      stdlib distributions anywhere outside src/sim/random,
//                      the one audited randomness module.
//   unordered-iter     std::unordered_{map,set} in hot-path subsystems
//                      (sim, net, routing, econ) — iteration order varies
//                      across libstdc++ versions and with pointer hashing;
//                      lookup-only uses must be allowlisted with a reason.
//   pointer-key-order  std::map/std::set keyed on a raw pointer: ordering
//                      then depends on allocation addresses, which ASLR
//                      randomizes between runs.
//   uninit-member      scalar struct/class members without a default
//                      initializer — reads of indeterminate values are both
//                      UB and a classic source of run-to-run divergence.
//   span-wall-clock    any wall-clock source (wall_now_seconds, <chrono>
//                      clocks) inside the causal-span module (sim/span*):
//                      span records carry simulated time only, or exported
//                      traces stop being byte-identical across runs.
//   timeseries-wall-clock
//                      the same wall-clock token list inside the time-series
//                      recorder (sim/timeseries*): sample ticks come from the
//                      simulated clock only, so CSV/JSON/dashboard exports
//                      stay byte-identical at any --jobs setting.
//   scale-wall-clock   the same wall-clock token list inside the scale
//                      profiler (sim/scale_profile*): shard-load cells,
//                      lookahead windows, and speedup predictions are
//                      functions of simulated time only, so SCALE_PROFILE
//                      reports stay byte-identical at any --jobs setting.
//   exec-wall-clock    every call site of wall_now_seconds(), the project's
//                      one audited wall-clock helper, anywhere in the tree.
//                      Wall time may feed observability exports (loop
//                      profiler, heartbeat, exec profiler) but never event
//                      order or a simulated value, so each call site must be
//                      audited and allowlisted with its data-flow argument.
//   scale-merge-order  hash containers inside the scale profiler: its
//                      accumulation structures are iterated at merge and
//                      export points, so every one must be an ordered
//                      container — hash order would make the merged report
//                      depend on the stdlib, not the seed.
//   mem-wall-clock     the same wall-clock token list inside the memory
//                      profiler (sim/mem_profile*): lifetimes, occupancy
//                      and the actor census are counts and simulated time
//                      — never RSS, never a malloc hook — so MEM_PROFILE
//                      reports stay byte-identical at any --jobs and
//                      --shards setting.
//   mem-merge-order    hash containers inside the memory profiler: same
//                      merge/export argument as scale-merge-order.
//   hot-path-alloc     raw `new`/`delete` or std::make_shared in src/net or
//                      src/sim: the million-actor refactor moves per-packet
//                      and per-event churn into arenas and pools, and
//                      perfbench's real allocations per event only stay
//                      near zero if new churn cannot appear silently. Each remaining direct
//                      allocation must be audited and allowlisted with the
//                      reason it is not per-packet churn ("= delete"
//                      declarations are ignored).
//
// sharedlint checks:
//   mutable-global     namespace-scope non-const variables anywhere in
//                      src/: process-wide state every shard would race on.
//   static-local       function-scope `static` (or thread_local) without
//                      const/constexpr: a hidden global with lazy init —
//                      the classic singleton cell.
//   singleton-accessor record-scope `static X& f()` declarations: the
//                      Meyers-singleton surface through which shared state
//                      escapes into every shard.
//   cross-actor-ptr    record members that are raw pointers to actor types
//                      (Node, Link, Network, Simulator, Ledger): edges in
//                      the object graph that let one shard's handler reach
//                      another's state synchronously.
//   cross-actor-mut    source lines that fetch another actor by id and
//                      mutate it in the same expression (net.node(x).
//                      add_filter(...)), or install routes into a node's
//                      FIB from outside net/ — mutation of another actor's
//                      state that never crosses the event queue.
//   unordered-merge    range-for iteration over a variable declared as an
//                      unordered container: hash-order iteration feeding
//                      any output makes merged results schedule-dependent.
//
// Allowlist format, one entry per line:
//     <check> <path-suffix> [line-substring] -- <justification>
// The entry silences <check> findings in files whose path ends with
// <path-suffix> (matched at a path-component boundary); if a line-substring
// is given, only findings whose source line contains it. The justification
// is mandatory and is emitted into the JSON report, so a committed report
// (SHARD_SAFETY.json) enumerates each audited exception with its reason. The
// report gives findings a line but allowlisted entries none, so moving an
// exception leaves the report as it was. An entry that silences nothing
// fails the run, so the list cannot rot.
//
// Usage: lint detlint|sharedlint [--allowlist FILE] [--json FILE] DIR...
// Exit:  0 clean, 1 unallowlisted findings or unused allowlist entries,
//        2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // path as scanned
  std::size_t line;  // 1-based
  std::string check;
  std::string message;
  std::string source_line;
  std::string justification;  // filled in when allowlisted
};

struct AllowEntry {
  std::string text;  // the entry as written, for the unused-entry error
  std::string check;
  std::string path_suffix;
  std::string line_substring;  // empty = any line in the file
  std::string justification;   // mandatory: goes into the JSON report
  mutable bool used = false;
};

// ------------------------------------------------------------ utilities --

bool ends_with_path(const std::string& path, const std::string& suffix) {
  if (suffix.size() > path.size()) return false;
  if (!std::equal(suffix.rbegin(), suffix.rend(), path.rbegin())) return false;
  // Require the match to start at a path-component boundary.
  const std::size_t start = path.size() - suffix.size();
  return start == 0 || path[start - 1] == '/';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `token` occurs in `text` bounded by non-identifier characters.
bool contains_token(std::string_view text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end == text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Replaces comments and string/char literal contents with spaces, keeping
/// newlines so line numbers survive. Handles //, /*...*/, "...", '...'.
std::string strip_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') state = State::kCode;
        else out[i] = ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> tokenize(const std::string& stmt) {
  std::istringstream is(stmt);
  std::vector<std::string> tokens;
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ------------------------------------------------------ the scanned file --

constexpr std::string_view kUnorderedContainers[] = {"unordered_map", "unordered_set",
                                                     "unordered_multimap", "unordered_multiset"};

/// One scanned file, as every check sees it. Stripping keeps newlines, so
/// raw and stripped lines correspond one to one.
struct Source {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> stripped_lines;
  /// Names of variables/members declared as unordered containers anywhere
  /// in the file (pass 1 of unordered-merge).
  std::vector<std::string> unordered_names;
};

void report(std::vector<Finding>& out, const Source& src, std::size_t line, std::string check,
            std::string message) {
  out.push_back({src.path, line, std::move(check), std::move(message),
                 trim(src.raw_lines[line - 1]), ""});
}

/// Reads the declarator name after an unordered container's template
/// argument list, if the line declares one.
void collect_unordered_names(const std::string& stripped_line,
                             std::vector<std::string>& names) {
  for (std::string_view cont : kUnorderedContainers) {
    std::size_t pos = stripped_line.find(cont);
    if (pos == std::string::npos) continue;
    // Skip the template argument list, then read the declarator name.
    std::size_t i = stripped_line.find('<', pos);
    if (i == std::string::npos) return;
    int depth = 0;
    for (; i < stripped_line.size(); ++i) {
      if (stripped_line[i] == '<') ++depth;
      if (stripped_line[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
    while (i < stripped_line.size() &&
           std::isspace(static_cast<unsigned char>(stripped_line[i])) != 0) {
      ++i;
    }
    std::string name;
    while (i < stripped_line.size() && is_ident_char(stripped_line[i])) {
      name.push_back(stripped_line[i++]);
    }
    if (!name.empty()) names.push_back(std::move(name));
    return;
  }
}

/// The sim's own randomness module may hold whatever state it needs — it is
/// the one audited source of randomness, already per-Simulator.
bool in_randomness_module(const std::string& path) {
  return path.find("sim/random") != std::string::npos;
}

// ------------------------------------------------------------ scope walk --

enum class Scope { kNamespace, kRecord, kEnum, kBody };

/// One `;`-terminated statement, as the scope walk hands it to a rule set.
struct Statement {
  Scope scope;                      // innermost enclosing brace scope
  std::string text;                 // stripped text, newlines as spaces
  std::vector<std::string> tokens;  // text split on whitespace, never empty
  std::size_t line;                 // line of the first non-space character
};

/// Classifies a '{' from the statement text preceding it: namespace, enum,
/// record (struct/class/union, but not a function or an initializer), or
/// body (function body, lambda, initializer list).
Scope classify_scope(const std::string& stmt) {
  if (contains_token(stmt, "namespace")) return Scope::kNamespace;
  if (contains_token(stmt, "enum")) return Scope::kEnum;
  if ((contains_token(stmt, "struct") || contains_token(stmt, "class") ||
       contains_token(stmt, "union")) &&
      stmt.find('(') == std::string::npos && stmt.find('=') == std::string::npos) {
    return Scope::kRecord;
  }
  return Scope::kBody;
}

/// Walks brace scopes, classifying each as namespace, record, enum, or
/// body, and hands every statement to `on_statement` with the scope it sits
/// in. Preprocessor directives, with their `\` continuations, are left out
/// of statements: a directive is not part of the declaration that follows
/// it, and must not lend it its line. Line checks still see directives.
void walk_scopes(const Source& src, const std::function<void(const Statement&)>& on_statement) {
  std::vector<Scope> scopes;
  std::string stmt;           // text since the last ';' '{' '}' at this level
  std::size_t stmt_line = 1;  // line where the current statement started
  bool stmt_started = false;
  bool in_directive = false;  // the previous line was a directive ending in '\'

  for (std::size_t n = 0; n < src.stripped_lines.size(); ++n) {
    const std::string& line = src.stripped_lines[n];
    if (in_directive || trim(line).starts_with('#')) {
      in_directive = line.ends_with('\\');
      continue;
    }
    for (const char c : line) {
      if (c == '{') {
        scopes.push_back(classify_scope(stmt));
        stmt.clear();
        stmt_started = false;
        continue;
      }
      if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        stmt.clear();
        stmt_started = false;
        continue;
      }
      if (c == ';') {
        std::vector<std::string> tokens = tokenize(stmt);
        if (!tokens.empty()) {
          on_statement({scopes.empty() ? Scope::kNamespace : scopes.back(), stmt,
                        std::move(tokens), stmt_line});
        }
        stmt.clear();
        stmt_started = false;
        continue;
      }
      if (c == ':') {
        // Access specifiers end a "statement" of their own; splitting here
        // keeps the next member's reported line accurate.
        const std::string t = trim(stmt);
        if (t == "public" || t == "private" || t == "protected") {
          stmt.clear();
          stmt_started = false;
          continue;
        }
      }
      if (!stmt_started && std::isspace(static_cast<unsigned char>(c)) == 0) {
        stmt_started = true;
        stmt_line = n + 1;
      }
      stmt.push_back(c);
    }
    stmt.push_back(' ');  // the newline
  }
}

// ------------------------------------------------------- detlint checks --

/// Identifiers that pull in wall-clock time, OS entropy, or stdlib random
/// machinery whose output differs across standard-library implementations.
constexpr std::string_view kBannedRandomTokens[] = {
    "random_device", "rand", "srand", "random", "drand48", "lrand48",
    "mrand48", "srand48", "getpid", "gettimeofday", "clock_gettime",
    "system_clock", "steady_clock", "high_resolution_clock", "mt19937",
    "mt19937_64", "minstd_rand", "default_random_engine",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "exponential_distribution", "bernoulli_distribution",
    "poisson_distribution", "discrete_distribution",
};

// `time(` specifically (bare token "time" would flag SimTime etc.).
constexpr std::string_view kBannedRandomCalls[] = {"time (", "time("};

/// Wall-clock sources that must never appear in a pinned-export module.
/// banned-random already catches the stdlib clocks; this list adds the
/// project's own (audited) wall-clock helper and the <chrono> umbrella, so
/// a timestamp cannot be smuggled in through either route.
constexpr std::string_view kWallClockTokens[] = {
    "wall_now_seconds", "chrono", "clock",
};

/// Hash containers a merge/export point may not iterate.
constexpr std::string_view kHashContainers[] = {"unordered_map",      "unordered_set",
                                                "unordered_multimap", "unordered_multiset",
                                                "flat_hash_map",      "flat_hash_set"};

/// A module whose exports are byte-identical across runs and --jobs
/// settings. Each bans kWallClockTokens under its own check name; a module
/// with a merge-order check also bans kHashContainers.
struct PinnedModule {
  std::string_view path;               // path substring naming the module's files
  std::string_view wall_clock_check;
  std::string_view merge_order_check;  // empty: the module has no merge points
  std::string_view name;               // how messages name the module
  std::string_view wall_clock_reason;
};

constexpr PinnedModule kPinnedModules[] = {
    {"sim/span", "span-wall-clock", "", "the span module",
     "span records carry simulated time only, or traces diverge run to run"},
    // The time-series recorder has the same contract as the span tracer:
    // ticks are simulated time only, so exports are byte-identical across
    // runs and --jobs settings.
    {"sim/timeseries", "timeseries-wall-clock", "", "the time-series recorder",
     "sample ticks carry simulated time only, or exports diverge run to run"},
    // The scale profiler extends that contract to its speedup model: every
    // quantity in a SCALE_PROFILE report (shard-load cells, lookahead
    // windows, barrier costs) derives from simulated time and event counts
    // only.
    {"sim/scale_profile", "scale-wall-clock", "scale-merge-order", "the scale profiler",
     "shard loads, lookahead windows, and speedup predictions derive from simulated "
     "time only, or SCALE_PROFILE reports diverge across runs and --jobs settings"},
    // The memory profiler carries the same contract again: every quantity in
    // a MEM_PROFILE report (lifetimes, occupancy, the actor census) is a
    // count or a simulated time — never RSS, never a malloc hook.
    {"sim/mem_profile", "mem-wall-clock", "mem-merge-order", "the memory profiler",
     "lifetimes, occupancy, and the actor census are counts and simulated time — "
     "never RSS — or MEM_PROFILE reports diverge across runs, --jobs, and --shards "
     "settings"},
};

bool in_hot_path(const std::string& path) {
  for (const char* dir : {"/sim/", "/net/", "/routing/", "/econ/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

/// Where the hot-path-alloc check applies: the subsystems whose per-packet /
/// per-event churn perfbench's allocation count meters and the arena
/// refactor targets.
bool in_alloc_hot_path(const std::string& path) {
  for (const char* dir : {"/sim/", "/net/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

void check_line_tokens(const Source& src, std::size_t lineno, std::vector<Finding>& out) {
  const std::string& path = src.path;
  const std::string& stripped = src.stripped_lines[lineno - 1];
  if (!in_randomness_module(path)) {
    for (std::string_view tok : kBannedRandomTokens) {
      if (contains_token(stripped, tok)) {
        report(out, src, lineno, "banned-random",
               "non-deterministic or non-portable randomness source '" + std::string(tok) +
                   "' outside sim/random");
      }
    }
    for (std::string_view call : kBannedRandomCalls) {
      if (std::string_view(stripped).find(call) != std::string_view::npos &&
          !contains_token(stripped, "next_time") && !contains_token(stripped, "sent_time")) {
        // contains "time(" as a bare call, not e.g. next_time()
        std::size_t pos = stripped.find(call);
        const bool left_ok = pos == 0 || !is_ident_char(stripped[pos - 1]);
        if (left_ok) {
          report(out, src, lineno, "banned-random", "wall-clock time() call outside sim/random");
        }
        break;
      }
    }
  }
  bool in_pinned_module = false;
  for (const PinnedModule& m : kPinnedModules) {
    if (path.find(m.path) == std::string::npos) continue;
    in_pinned_module = true;
    for (std::string_view tok : kWallClockTokens) {
      if (contains_token(stripped, tok)) {
        report(out, src, lineno, std::string(m.wall_clock_check),
               "wall-clock source '" + std::string(tok) + "' in " + std::string(m.name) +
                   ": " + std::string(m.wall_clock_reason));
      }
    }
    if (m.merge_order_check.empty()) continue;
    for (std::string_view tok : kHashContainers) {
      if (contains_token(stripped, tok)) {
        report(out, src, lineno, std::string(m.merge_order_check),
               std::string(tok) + " in " + std::string(m.name) +
                   ": accumulation structures are iterated at merge/export points, so "
                   "they must be ordered containers or the merged report depends on "
                   "the stdlib's hash, not the seed");
        break;
      }
    }
  }
  // Every call site of the audited wall-clock helper. The pinned modules
  // above already ban the token outright, so skip them here — one line
  // should not report twice.
  if (!in_pinned_module && contains_token(stripped, "wall_now_seconds")) {
    report(out, src, lineno, "exec-wall-clock",
           "wall_now_seconds call site: wall-clock readings may feed "
           "observability exports only, never event order or a "
           "simulated value — audit the site and allowlist it");
  }
  if (in_hot_path(path)) {
    for (std::string_view tok : kUnorderedContainers) {
      if (contains_token(stripped, tok)) {
        report(out, src, lineno, "unordered-iter",
               "std::" + std::string(tok) +
                   " in a hot-path subsystem: iteration order is not "
                   "reproducible across stdlib versions");
        break;
      }
    }
  }
  // Direct heap allocation in the packet/event subsystems. Deleted special
  // members ("= delete") are declarations, not allocations.
  if (in_alloc_hot_path(path) && stripped.find("= delete") == std::string::npos &&
      stripped.find("=delete") == std::string::npos) {
    for (const char* tok : {"new", "delete", "make_shared"}) {
      if (contains_token(stripped, tok)) {
        report(out, src, lineno, "hot-path-alloc",
               std::string("'") + tok +
                   "' in a packet/event hot-path subsystem: per-packet "
                   "or per-event heap churn is what the arena/pool "
                   "refactor removes and perfbench's "
                   "alloc.run_per_event meters — audit the site and "
                   "allowlist it with why it is not per-packet churn");
        break;
      }
    }
  }
  // std::map< T* ...> / std::set< T* ...> — pointer-keyed ordering.
  for (const char* tmpl : {"std::map<", "std::set<", "std::multimap<", "std::multiset<"}) {
    std::size_t pos = stripped.find(tmpl);
    if (pos == std::string::npos) continue;
    // Inspect the first template argument (up to the first ',' or matching '>').
    std::size_t i = pos + std::string_view(tmpl).size();
    int depth = 0;
    std::string first_arg;
    for (; i < stripped.size(); ++i) {
      const char c = stripped[i];
      if (c == '<') ++depth;
      if (c == '>' && depth-- == 0) break;
      if (c == ',' && depth == 0) break;
      first_arg.push_back(c);
    }
    if (first_arg.find('*') != std::string::npos) {
      report(out, src, lineno, "pointer-key-order",
             "ordered container keyed on a raw pointer: ordering depends "
             "on allocation addresses, which vary run to run");
    }
  }
}

/// Scalar types whose members must carry a default initializer.
bool is_scalar_type(const std::vector<std::string>& type_tokens) {
  static const std::string_view kScalars[] = {
      "bool", "int", "unsigned", "long", "short", "char", "float", "double",
      "size_t", "std::size_t", "ptrdiff_t", "std::ptrdiff_t",
      "int8_t", "int16_t", "int32_t", "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t",
      "std::int8_t", "std::int16_t", "std::int32_t", "std::int64_t",
      "std::uint8_t", "std::uint16_t", "std::uint32_t", "std::uint64_t",
      // Project-local integer aliases (net/address.hpp, net/forwarding.hpp).
      "NodeId", "LinkId", "AsId", "IfIndex",
  };
  if (type_tokens.empty()) return false;
  for (const std::string& t : type_tokens) {
    bool known = false;
    for (std::string_view s : kScalars) {
      if (t == s) {
        known = true;
        break;
      }
    }
    if (!known) return false;  // any non-scalar token (vector<...>, const, &) disqualifies
  }
  return true;
}

/// uninit-member: member statements directly inside a record scope whose
/// type is all scalar tokens and that carry no initializer.
void check_uninit_member(const Source& src, const Statement& s, std::vector<Finding>& out) {
  if (s.scope != Scope::kRecord) return;
  // Skip declarations that are not plain data members.
  static const std::string_view kSkipLead[] = {
      "using", "typedef", "friend", "static", "constexpr", "template",
      "enum", "struct", "class", "return", "explicit", "virtual", "operator",
  };
  for (std::string_view lead : kSkipLead) {
    if (s.tokens.front() == lead) return;
  }
  if (s.text.find('=') != std::string::npos) return;  // has initializer
  if (s.text.find('(') != std::string::npos) return;  // function decl
  if (s.text.find('[') != std::string::npos) return;  // array (rare; audit by hand)
  // A lone ':' (not part of a '::' qualifier) marks a bitfield.
  for (std::size_t k = 0; k < s.text.size(); ++k) {
    if (s.text[k] == ':' && (k == 0 || s.text[k - 1] != ':') &&
        (k + 1 == s.text.size() || s.text[k + 1] != ':')) {
      return;
    }
  }
  // Last token is the member name; everything before must be scalar type tokens.
  if (s.tokens.size() < 2) return;
  std::vector<std::string> type_tokens(s.tokens.begin(), s.tokens.end() - 1);
  if (type_tokens.front() == "mutable") type_tokens.erase(type_tokens.begin());
  if (!is_scalar_type(type_tokens)) return;
  report(out, src, s.line, "uninit-member",
         "scalar member '" + s.tokens.back() +
             "' has no default initializer; an unwritten read is UB "
             "and diverges run to run");
}

// ---------------------------------------------------- sharedlint checks --

/// Actor types a raw pointer member may not silently bridge. Observability
/// types (SpanTracer, Tracer, LoopProfiler, ShardAuditor) are deliberately
/// absent: they are per-run sinks, not simulation state.
constexpr std::string_view kActorTypes[] = {"Node", "Link", "Network", "Simulator", "Ledger"};

/// The shard-state checks, by the scope a statement sits in:
///  - namespace scope: mutable-global
///  - record scope:    singleton-accessor, cross-actor-ptr
///  - body scope:      static-local
void check_shard_state(const Source& src, const Statement& s, std::vector<Finding>& out) {
  const std::string& statement = s.text;
  auto has = [&](std::string_view t) { return contains_token(statement, t); };
  // constinit only rules out dynamic initialization; the variable stays
  // mutable, so it does not count here.
  const bool immutable = has("const") || has("constexpr");

  switch (s.scope) {
    case Scope::kNamespace: {
      // A namespace-scope variable: no '(' (rules out function
      // declarations and call-initialized globals, which are rare and
      // caught at review), not a type/alias/using declaration.
      static const std::string_view kSkipLead[] = {
          "using", "typedef", "template", "struct", "class", "union", "enum",
          "friend", "extern", "namespace", "static_assert", "concept", "return",
      };
      for (std::string_view lead : kSkipLead) {
        if (s.tokens.front() == lead) return;
      }
      if (statement.find('(') != std::string::npos) return;
      if (immutable) return;
      if (s.tokens.size() < 2) return;
      if (in_randomness_module(src.path)) return;
      report(out, src, s.line, "mutable-global",
             "namespace-scope mutable variable: process-wide state every "
             "shard would share once the event loop is partitioned");
      return;
    }
    case Scope::kRecord: {
      // Reference must be in the return type (before the parameter list):
      // `static Tracer& global()` is the pattern, `static X f(Y& p)` is not.
      if (s.tokens.front() == "static" && statement.find('(') != std::string::npos &&
          statement.find('&') < statement.find('(')) {
        report(out, src, s.line, "singleton-accessor",
               "static accessor returning a reference: the surface through "
               "which process-wide state escapes into every shard");
        return;
      }
      if (statement.find('(') != std::string::npos) return;  // method decl
      if (statement.find('*') == std::string::npos) return;
      for (std::string_view actor : kActorTypes) {
        if (has(actor)) {
          report(out, src, s.line, "cross-actor-ptr",
                 "raw pointer member to actor type '" + std::string(actor) +
                     "': a synchronous bridge between components that may "
                     "land in different shards");
          return;
        }
      }
      return;
    }
    case Scope::kBody: {
      if (s.tokens.front() != "static" && s.tokens.front() != "thread_local") return;
      if (immutable) return;
      if (in_randomness_module(src.path)) return;
      report(out, src, s.line, "static-local",
             "mutable function-local static: a hidden global with lazy "
             "initialization — shards would race on first use and share "
             "state after it");
      return;
    }
    case Scope::kEnum:
      return;
  }
}

/// Mutators that, combined with fetching another actor on the same line,
/// mean "reach into that actor and change it" — the pattern that must
/// become an event-queue hop under PDES.
constexpr std::string_view kActorMutators[] = {
    ".add_filter(",  ".remove_filter(", ".renumber(", ".add_address(",
    ".set_local_handler(", ".receive(", ".set_up(",
};

void check_cross_actor_mutation(const Source& src, std::size_t lineno,
                                std::vector<Finding>& out) {
  const std::string& stripped = src.stripped_lines[lineno - 1];
  const bool fetches_actor = stripped.find(".node(") != std::string::npos ||
                             stripped.find("->node(") != std::string::npos ||
                             stripped.find(".link(") != std::string::npos ||
                             stripped.find("->link(") != std::string::npos;
  if (fetches_actor) {
    for (std::string_view mut : kActorMutators) {
      if (stripped.find(mut) != std::string::npos) {
        report(out, src, lineno, "cross-actor-mut",
               "fetches an actor by id and mutates it in the same expression: "
               "under PDES this mutation must be a scheduled event, not a call");
        return;
      }
    }
  }
  // Route installation into a node's FIB from outside net/: the control
  // plane writing the data plane's per-actor state.
  if (src.path.find("/net/") == std::string::npos &&
      (stripped.find("forwarding().set_") != std::string::npos ||
       stripped.find("forwarding().clear") != std::string::npos)) {
    report(out, src, lineno, "cross-actor-mut",
           "installs routes into a node's forwarding table from another "
           "subsystem: cross-actor state write that must become an event "
           "(or run at a PDES barrier)");
  }
}

/// Pass 2 of unordered-merge: a range-for whose range is one of the
/// collected names iterates in hash order.
void check_unordered_merge(const Source& src, std::size_t lineno, std::vector<Finding>& out) {
  const std::string& stripped = src.stripped_lines[lineno - 1];
  if (!contains_token(stripped, "for")) return;
  const std::size_t colon = stripped.find(':');
  if (colon == std::string::npos) return;
  for (const std::string& name : src.unordered_names) {
    std::size_t pos = stripped.find(name, colon);
    while (pos != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(stripped[pos - 1]);
      const std::size_t end = pos + name.size();
      const bool right_ok = end >= stripped.size() || !is_ident_char(stripped[end]);
      if (left_ok && right_ok) {
        report(out, src, lineno, "unordered-merge",
               "range-for over unordered container '" + name +
                   "': hash-order iteration feeding any output makes merged "
                   "results schedule-dependent");
        return;
      }
      pos = stripped.find(name, pos + 1);
    }
  }
}

void check_shard_lines(const Source& src, std::size_t lineno, std::vector<Finding>& out) {
  check_cross_actor_mutation(src, lineno, out);
  check_unordered_merge(src, lineno, out);
}

// -------------------------------------------------------------- driver ---

/// A rule set: what it checks on each statement of the scope walk and on
/// each line, and the word its summary line uses for one finding.
struct RuleSet {
  std::string_view name;
  std::string_view noun;
  void (*check_statement)(const Source&, const Statement&, std::vector<Finding>&);
  void (*check_line)(const Source&, std::size_t lineno, std::vector<Finding>&);
};

constexpr RuleSet kRuleSets[] = {
    {"detlint", "violation", check_uninit_member, check_line_tokens},
    {"sharedlint", "finding", check_shard_state, check_shard_lines},
};

constexpr std::string_view kUsage =
    "usage: lint detlint|sharedlint [--allowlist FILE] [--json FILE] DIR...\n";

std::optional<std::vector<AllowEntry>> load_allowlist(const std::string& file,
                                                      std::string_view tool) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::vector<AllowEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t sep = t.find(" -- ");
    if (sep == std::string::npos) {
      std::cerr << tool << ": allowlist entry missing ' -- justification': " << line << "\n";
      return std::nullopt;
    }
    AllowEntry e;
    e.text = t;
    e.justification = trim(t.substr(sep + 4));
    std::istringstream is(t.substr(0, sep));
    is >> e.check >> e.path_suffix;
    std::string rest;
    std::getline(is, rest);
    e.line_substring = trim(rest);
    if (e.check.empty() || e.path_suffix.empty() || e.justification.empty()) {
      std::cerr << tool << ": malformed allowlist line: " << line << "\n";
      return std::nullopt;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

const AllowEntry* find_allowed(const Finding& f, const std::vector<AllowEntry>& allow) {
  for (const AllowEntry& e : allow) {
    if (e.check != f.check && e.check != "*") continue;
    if (!ends_with_path(f.file, e.path_suffix)) continue;
    if (!e.line_substring.empty() &&
        f.source_line.find(e.line_substring) == std::string::npos) {
      continue;
    }
    e.used = true;
    return &e;
  }
  return nullptr;
}

/// A finding keeps its line; an allowlisted entry does not, so an edit above
/// an audited exception leaves a committed report unchanged.
void write_finding_json(std::ostream& os, const Finding& f, bool allowlisted) {
  os << "    {\"check\": \"" << json_escape(f.check) << "\", \"file\": \"" << json_escape(f.file)
     << "\"";
  if (!allowlisted) os << ", \"line\": " << f.line;
  os << ", \"message\": \"" << json_escape(f.message) << "\", \"source\": \""
     << json_escape(f.source_line) << "\"";
  if (allowlisted) os << ", \"justification\": \"" << json_escape(f.justification) << "\"";
  os << "}";
}

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  const RuleSet* rules = nullptr;
  std::vector<std::string> roots;
  std::string allowlist_file;
  std::string json_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (i == 1) {
      for (const RuleSet& r : kRuleSets) {
        if (arg == r.name) rules = &r;
      }
      if (rules == nullptr) {
        std::cerr << "lint: unknown rule set '" << arg << "'\n" << kUsage;
        return 2;
      }
    } else if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::cerr << rules->name << ": --allowlist requires a file argument\n";
        return 2;
      }
      allowlist_file = argv[++i];
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << rules->name << ": --json requires a file argument\n";
        return 2;
      }
      json_file = argv[++i];
    } else {
      roots.push_back(arg);
    }
  }
  if (rules == nullptr || roots.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string_view tool = rules->name;

  std::vector<AllowEntry> allow;
  if (!allowlist_file.empty()) {
    auto loaded = load_allowlist(allowlist_file, tool);
    if (!loaded) {
      std::cerr << tool << ": cannot read allowlist " << allowlist_file << "\n";
      return 2;
    }
    allow = std::move(*loaded);
  }

  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << tool << ": no such path: " << root << "\n";
      return 2;
    }
    std::vector<fs::path> files;
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && scannable(entry.path())) files.push_back(entry.path());
      }
    } else {
      files.push_back(root);
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& p : files) {
      std::ifstream in(p);
      if (!in) {
        std::cerr << tool << ": cannot read " << p << "\n";
        return 2;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string raw = buf.str();
      Source src{p.generic_string(), split_lines(raw),
                 split_lines(strip_comments_and_strings(raw)), {}};
      for (const std::string& line : src.stripped_lines) {
        collect_unordered_names(line, src.unordered_names);
      }

      walk_scopes(src, [&](const Statement& s) { rules->check_statement(src, s, findings); });
      for (std::size_t i = 0; i < src.stripped_lines.size(); ++i) {
        rules->check_line(src, i + 1, findings);
      }
      ++files_scanned;
    }
  }

  std::vector<Finding> reported, allowlisted;
  for (Finding& f : findings) {
    if (const AllowEntry* e = find_allowed(f, allow)) {
      f.justification = e->justification;
      allowlisted.push_back(f);
      continue;
    }
    reported.push_back(f);
    std::cerr << f.file << ":" << f.line << ": [" << f.check << "] " << f.message << "\n";
    if (!f.source_line.empty()) std::cerr << "    " << f.source_line << "\n";
  }
  // An entry that silences nothing no longer describes the code: fail, so
  // the allowlist cannot rot.
  std::size_t unused = 0;
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      ++unused;
      std::cerr << tool << ": unused allowlist entry: " << e.text << "\n";
    }
  }

  if (!json_file.empty()) {
    std::ofstream os(json_file);
    if (!os) {
      std::cerr << tool << ": cannot write " << json_file << "\n";
      return 2;
    }
    os << "{\n  \"tool\": \"" << tool << "\",\n  \"files_scanned\": " << files_scanned
       << ",\n  \"findings\": [\n";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      write_finding_json(os, reported[i], false);
      os << (i + 1 < reported.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"allowlisted\": [\n";
    for (std::size_t i = 0; i < allowlisted.size(); ++i) {
      write_finding_json(os, allowlisted[i], true);
      os << (i + 1 < allowlisted.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
  }

  std::cerr << tool << ": " << files_scanned << " files, " << reported.size() << " "
            << rules->noun << (reported.size() == 1 ? "" : "s") << " (" << allowlisted.size()
            << " allowlisted)\n";
  return reported.empty() && unused == 0 ? 0 : 1;
}
