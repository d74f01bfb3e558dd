// sharedlint — shard-safety lint for the tussle-net source tree.
//
// The planned PDES refactor (ROADMAP item 2) partitions the world by AS
// into shards, each with its own event queue. That split is only sound if
// no event handler reaches into state owned by another shard except via a
// scheduled event — the invariant Shadow had to establish before its
// scheduler/worker split. This tool is the static half of the shard-safety
// analysis (sim/shard_audit.hpp is the runtime half): it inventories every
// construct that would be shared mutable state, or a back door between
// actors, once the world is sharded.
//
// Checks:
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
// Every allowlist entry must carry a `-- justification`; the justification
// is emitted into the JSON report, so the committed report enumerates each
// audited exception with its reason.
//
// Usage: sharedlint [--allowlist FILE] [--json FILE] DIR...
// Exit:  0 clean, 1 unallowlisted findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
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

// ---------------------------------------------------- structural checks --

/// Actor types a raw pointer member may not silently bridge. Observability
/// types (SpanTracer, Tracer, LoopProfiler, ShardAuditor) are deliberately
/// absent: they are per-run sinks, not simulation state.
constexpr std::string_view kActorTypes[] = {"Node", "Link", "Network", "Simulator", "Ledger"};

/// The sim's own randomness module may hold whatever state it needs — it is
/// the one audited source, already per-Simulator.
bool in_randomness_module(const std::string& path) {
  return path.find("sim/random") != std::string::npos;
}

/// Walks brace scopes, classifying each as namespace, record, enum, or
/// body, and runs the shard-state checks on every statement:
///  - namespace scope: mutable-global
///  - record scope:    singleton-accessor, cross-actor-ptr
///  - body scope:      static-local
void structural_scan(const std::string& path, const std::string& stripped,
                     const std::vector<std::string>& raw_lines, std::vector<Finding>& out) {
  enum class Scope { kNamespace, kRecord, kEnum, kBody };
  std::vector<Scope> scopes;
  std::string stmt;
  std::size_t stmt_line = 1;
  std::size_t lineno = 1;
  bool stmt_started = false;

  auto raw_at = [&](std::size_t line) {
    return line - 1 < raw_lines.size() ? trim(raw_lines[line - 1]) : std::string();
  };
  auto top = [&]() { return scopes.empty() ? Scope::kNamespace : scopes.back(); };

  auto flush = [&](const std::string& statement, std::size_t at_line) {
    const std::vector<std::string> tokens = tokenize(statement);
    if (tokens.empty()) return;
    auto has = [&](std::string_view t) { return contains_token(statement, t); };
    // constinit only rules out dynamic initialization; the variable stays
    // mutable, so it does not count here.
    const bool immutable = has("const") || has("constexpr");

    switch (top()) {
      case Scope::kNamespace: {
        // A namespace-scope variable: no '(' (rules out function
        // declarations and call-initialized globals, which are rare and
        // caught at review), not a type/alias/using declaration.
        static const std::string_view kSkipLead[] = {
            "using", "typedef", "template", "struct", "class", "union", "enum",
            "friend", "extern", "namespace", "static_assert", "concept", "return",
        };
        for (std::string_view s : kSkipLead) {
          if (tokens.front() == s) return;
        }
        if (statement.find('(') != std::string::npos) return;
        if (immutable) return;
        if (tokens.size() < 2) return;
        if (in_randomness_module(path)) return;
        out.push_back({path, at_line, "mutable-global",
                       "namespace-scope mutable variable: process-wide state every "
                       "shard would share once the event loop is partitioned",
                       raw_at(at_line), ""});
        return;
      }
      case Scope::kRecord: {
        // Reference must be in the return type (before the parameter list):
        // `static Tracer& global()` is the pattern, `static X f(Y& p)` is not.
        if (tokens.front() == "static" && statement.find('(') != std::string::npos &&
            statement.find('&') < statement.find('(')) {
          out.push_back({path, at_line, "singleton-accessor",
                         "static accessor returning a reference: the surface through "
                         "which process-wide state escapes into every shard",
                         raw_at(at_line), ""});
          return;
        }
        if (statement.find('(') != std::string::npos) return;  // method decl
        if (statement.find('*') == std::string::npos) return;
        for (std::string_view actor : kActorTypes) {
          if (has(actor)) {
            out.push_back({path, at_line, "cross-actor-ptr",
                           "raw pointer member to actor type '" + std::string(actor) +
                               "': a synchronous bridge between components that may "
                               "land in different shards",
                           raw_at(at_line), ""});
            return;
          }
        }
        return;
      }
      case Scope::kBody: {
        if (tokens.front() != "static" && tokens.front() != "thread_local") return;
        if (immutable) return;
        if (in_randomness_module(path)) return;
        out.push_back({path, at_line, "static-local",
                       "mutable function-local static: a hidden global with lazy "
                       "initialization — shards would race on first use and share "
                       "state after it",
                       raw_at(at_line), ""});
        return;
      }
      case Scope::kEnum:
        return;
    }
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++lineno;
      stmt.push_back(' ');
      continue;
    }
    if (c == '{') {
      Scope s = Scope::kBody;
      if (contains_token(stmt, "namespace")) {
        s = Scope::kNamespace;
      } else if (contains_token(stmt, "enum")) {
        s = Scope::kEnum;
      } else if ((contains_token(stmt, "struct") || contains_token(stmt, "class") ||
                  contains_token(stmt, "union")) &&
                 stmt.find('(') == std::string::npos && stmt.find('=') == std::string::npos) {
        s = Scope::kRecord;
      }
      scopes.push_back(s);
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
      flush(stmt, stmt_line);
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == ':') {
      const std::string t = trim(stmt);
      if (t == "public" || t == "private" || t == "protected") {
        stmt.clear();
        stmt_started = false;
        continue;
      }
    }
    if (!stmt_started && std::isspace(static_cast<unsigned char>(c)) == 0) {
      stmt_started = true;
      stmt_line = lineno;
    }
    stmt.push_back(c);
  }
}

// ---------------------------------------------------------- line checks --

/// Mutators that, combined with fetching another actor on the same line,
/// mean "reach into that actor and change it" — the pattern that must
/// become an event-queue hop under PDES.
constexpr std::string_view kActorMutators[] = {
    ".add_filter(",  ".remove_filter(", ".renumber(", ".add_address(",
    ".set_local_handler(", ".receive(", ".set_up(",
};

void check_cross_actor_mutation(const std::string& path, std::size_t lineno,
                                const std::string& stripped, const std::string& raw,
                                std::vector<Finding>& out) {
  const bool fetches_actor = stripped.find(".node(") != std::string::npos ||
                             stripped.find("->node(") != std::string::npos ||
                             stripped.find(".link(") != std::string::npos ||
                             stripped.find("->link(") != std::string::npos;
  if (fetches_actor) {
    for (std::string_view mut : kActorMutators) {
      if (stripped.find(mut) != std::string::npos) {
        out.push_back({path, lineno, "cross-actor-mut",
                       "fetches an actor by id and mutates it in the same expression: "
                       "under PDES this mutation must be a scheduled event, not a call",
                       trim(raw), ""});
        return;
      }
    }
  }
  // Route installation into a node's FIB from outside net/: the control
  // plane writing the data plane's per-actor state.
  if (path.find("/net/") == std::string::npos &&
      (stripped.find("forwarding().set_") != std::string::npos ||
       stripped.find("forwarding().clear") != std::string::npos)) {
    out.push_back({path, lineno, "cross-actor-mut",
                   "installs routes into a node's forwarding table from another "
                   "subsystem: cross-actor state write that must become an event "
                   "(or run at a PDES barrier)",
                   trim(raw), ""});
  }
}

/// Pass 1: names of variables/members declared as unordered containers.
void collect_unordered_names(const std::string& stripped_line,
                             std::vector<std::string>& names) {
  static const std::string_view kContainers[] = {"unordered_map", "unordered_set",
                                                 "unordered_multimap", "unordered_multiset"};
  for (std::string_view cont : kContainers) {
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

/// Pass 2: range-for over a collected name — hash-order iteration.
void check_unordered_merge(const std::string& path, std::size_t lineno,
                           const std::string& stripped, const std::string& raw,
                           const std::vector<std::string>& unordered_names,
                           std::vector<Finding>& out) {
  if (stripped.find("for") == std::string::npos) return;
  if (!contains_token(stripped, "for")) return;
  const std::size_t colon = stripped.find(':');
  if (colon == std::string::npos) return;
  for (const std::string& name : unordered_names) {
    std::size_t pos = stripped.find(name, colon);
    while (pos != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(stripped[pos - 1]);
      const std::size_t end = pos + name.size();
      const bool right_ok = end >= stripped.size() || !is_ident_char(stripped[end]);
      if (left_ok && right_ok) {
        out.push_back({path, lineno, "unordered-merge",
                       "range-for over unordered container '" + name +
                           "': hash-order iteration feeding any output makes merged "
                           "results schedule-dependent",
                       trim(raw), ""});
        return;
      }
      pos = stripped.find(name, pos + 1);
    }
  }
}

// -------------------------------------------------------------- driver ---

std::optional<std::vector<AllowEntry>> load_allowlist(const std::string& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::vector<AllowEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t sep = t.find(" -- ");
    if (sep == std::string::npos) {
      std::cerr << "sharedlint: allowlist entry missing ' -- justification': " << line << "\n";
      return std::nullopt;
    }
    AllowEntry e;
    e.justification = trim(t.substr(sep + 4));
    std::istringstream is(t.substr(0, sep));
    is >> e.check >> e.path_suffix;
    std::string rest;
    std::getline(is, rest);
    e.line_substring = trim(rest);
    if (e.check.empty() || e.path_suffix.empty() || e.justification.empty()) {
      std::cerr << "sharedlint: malformed allowlist line: " << line << "\n";
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

void write_finding_json(std::ostream& os, const Finding& f, bool with_justification) {
  os << "    {\"check\": \"" << json_escape(f.check) << "\", \"file\": \""
     << json_escape(f.file) << "\", \"line\": " << f.line << ", \"message\": \""
     << json_escape(f.message) << "\", \"source\": \"" << json_escape(f.source_line) << "\"";
  if (with_justification) {
    os << ", \"justification\": \"" << json_escape(f.justification) << "\"";
  }
  os << "}";
}

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_file;
  std::string json_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::cerr << "sharedlint: --allowlist requires a file argument\n";
        return 2;
      }
      allowlist_file = argv[++i];
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "sharedlint: --json requires a file argument\n";
        return 2;
      }
      json_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sharedlint [--allowlist FILE] [--json FILE] DIR...\n";
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: sharedlint [--allowlist FILE] [--json FILE] DIR...\n";
    return 2;
  }

  std::vector<AllowEntry> allow;
  if (!allowlist_file.empty()) {
    auto loaded = load_allowlist(allowlist_file);
    if (!loaded) {
      std::cerr << "sharedlint: cannot read allowlist " << allowlist_file << "\n";
      return 2;
    }
    allow = std::move(*loaded);
  }

  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "sharedlint: no such path: " << root << "\n";
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
        std::cerr << "sharedlint: cannot read " << p << "\n";
        return 2;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string raw = buf.str();
      const std::string stripped = strip_comments_and_strings(raw);
      const std::vector<std::string> raw_lines = split_lines(raw);
      const std::vector<std::string> stripped_lines = split_lines(stripped);
      const std::string path = p.generic_string();

      structural_scan(path, stripped, raw_lines, findings);

      std::vector<std::string> unordered_names;
      for (const std::string& line : stripped_lines) {
        collect_unordered_names(line, unordered_names);
      }
      for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        const std::string& rawl = i < raw_lines.size() ? raw_lines[i] : stripped_lines[i];
        check_cross_actor_mutation(path, i + 1, stripped_lines[i], rawl, findings);
        check_unordered_merge(path, i + 1, stripped_lines[i], rawl, unordered_names,
                              findings);
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
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      std::cerr << "sharedlint: warning: unused allowlist entry: " << e.check << " "
                << e.path_suffix << (e.line_substring.empty() ? "" : " " + e.line_substring)
                << "\n";
    }
  }

  if (!json_file.empty()) {
    std::ofstream os(json_file);
    if (!os) {
      std::cerr << "sharedlint: cannot write " << json_file << "\n";
      return 2;
    }
    os << "{\n  \"tool\": \"sharedlint\",\n  \"files_scanned\": " << files_scanned
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

  std::cerr << "sharedlint: " << files_scanned << " files, " << reported.size() << " finding"
            << (reported.size() == 1 ? "" : "s") << " (" << allowlisted.size()
            << " allowlisted)\n";
  return reported.empty() ? 0 : 1;
}
