#include "sim/html.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

namespace tussle::sim {

std::string shard_label(ShardId s) {
  if (s == kNoShard) return "none";
  if (s == kSharedShard) return "shared";
  return std::to_string(s);
}

std::uint32_t log2_bucket(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(v));
}

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fmt_compact(double v) {
  char buf[48];
  if (v == 0) return "0";
  const double a = v < 0 ? -v : v;
  if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else if (a >= 10 || a == static_cast<double>(static_cast<std::int64_t>(a))) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

void open_card(std::string& out, const std::string& heading, const std::string& note) {
  out += "<div class=\"card\">\n<h2>" + html_escape(heading) + "</h2>\n";
  if (!note.empty()) out += "<p class=\"stats\">" + note + "</p>\n";
}

void histogram_svg(std::string& out, const std::map<std::uint32_t, std::uint64_t>& hist,
                   const char* unit) {
  if (hist.empty()) return;
  std::uint64_t mx = 0;
  for (const auto& [b, n] : hist) {
    (void)b;
    mx = std::max(mx, n);
  }
  if (mx == 0) return;
  const std::size_t n = hist.size();
  constexpr double kW = 760, kH = 140, kML = 46, kMB = 24;
  const double bw = (kW - kML - 14) / static_cast<double>(n);
  out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) + "\" role=\"img\">\n";
  std::size_t i = 0;
  for (const auto& [b, cnt] : hist) {
    const double h = (kH - kMB - 10) * static_cast<double>(cnt) / static_cast<double>(mx);
    const double x = kML + bw * static_cast<double>(i);
    out += "<rect class=\"bar\" x=\"" + fmt2(x + 2) + "\" y=\"" + fmt2(kH - kMB - h) +
           "\" width=\"" + fmt2(bw - 4) + "\" height=\"" + fmt2(h) + "\"><title>" +
           std::to_string(cnt) + " " + unit + "</title></rect>\n";
    const std::string label =
        b == 0 ? std::string("0")
               : "&#8804;" + fmt_compact(static_cast<double>((1ull << b) - 1));
    out += "<text class=\"tick\" x=\"" + fmt2(x + bw / 2) + "\" y=\"" + fmt2(kH - 8) +
           "\" text-anchor=\"middle\">" + label + "</text>\n";
    ++i;
  }
  out += "</svg>\n";
}

std::string page_head(const std::string& title) {
  std::string out =
      "<!DOCTYPE html>\n"
      "<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
      "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n";
  out += "<title>" + html_escape(title) + "</title>\n";
  // One stylesheet for every dashboard: rules are class-scoped, and only the
  // time-series page emits tables.
  out +=
      "<style>\n"
      ".viz-root {\n"
      "  color-scheme: light;\n"
      "  --surface-1: #fcfcfb; --page: #f9f9f7;\n"
      "  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;\n"
      "  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);\n"
      "  --series-1: #2a78d6; --heat: 42,120,214;\n"
      "}\n"
      "@media (prefers-color-scheme: dark) {\n"
      "  :root:where(:not([data-theme=\"light\"])) .viz-root {\n"
      "    color-scheme: dark;\n"
      "    --surface-1: #1a1a19; --page: #0d0d0d;\n"
      "    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;\n"
      "    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);\n"
      "    --series-1: #3987e5; --heat: 57,135,229;\n"
      "  }\n"
      "}\n"
      ":root[data-theme=\"dark\"] .viz-root {\n"
      "  color-scheme: dark;\n"
      "  --surface-1: #1a1a19; --page: #0d0d0d;\n"
      "  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;\n"
      "  --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);\n"
      "  --series-1: #3987e5; --heat: 57,135,229;\n"
      "}\n"
      "body { margin: 0; font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif; }\n"
      ".viz-root { background: var(--page); color: var(--text-primary);\n"
      "  min-height: 100vh; padding: 24px; box-sizing: border-box; }\n"
      "h1 { font-size: 20px; margin: 0 0 4px; }\n"
      ".sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }\n"
      ".tiles { display: flex; gap: 12px; flex-wrap: wrap; margin-bottom: 24px; }\n"
      ".tile { background: var(--surface-1); border: 1px solid var(--border);\n"
      "  border-radius: 8px; padding: 12px 16px; min-width: 110px; }\n"
      ".tile .v { font-size: 24px; }\n"
      ".tile .k { color: var(--text-secondary); font-size: 12px; }\n"
      ".card { background: var(--surface-1); border: 1px solid var(--border);\n"
      "  border-radius: 8px; padding: 16px; margin-bottom: 16px; max-width: 820px; }\n"
      ".card h2 { font-size: 14px; margin: 0 0 4px; font-weight: 600; }\n"
      ".stats { color: var(--text-secondary); font-size: 12px; margin: 0 0 10px; }\n"
      ".stats b { color: var(--text-primary); font-weight: 600; }\n"
      ".verdict { white-space: nowrap; }\n"
      ".dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%;\n"
      "  background: var(--series-1); margin-right: 4px; }\n"
      "svg { display: block; width: 100%; height: auto; }\n"
      ".grid { stroke: var(--grid); stroke-width: 1; }\n"
      ".axis { stroke: var(--axis); stroke-width: 1; }\n"
      ".tick { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }\n"
      ".line { stroke: var(--series-1); stroke-width: 2; fill: none;\n"
      "  stroke-linejoin: round; stroke-linecap: round; }\n"
      ".ann { stroke: var(--muted); stroke-width: 1; stroke-dasharray: 4 3; }\n"
      ".pt { fill: transparent; }\n"
      ".cell { stroke: var(--grid); stroke-width: 0.5; }\n"
      ".bar { fill: var(--series-1); }\n"
      ".tbl summary { color: var(--text-secondary); font-size: 12px; cursor: pointer; }\n"
      "table { border-collapse: collapse; font-size: 12px; margin-top: 8px;\n"
      "  font-variant-numeric: tabular-nums; }\n"
      "td, th { border: 1px solid var(--grid); padding: 2px 8px; text-align: right; }\n"
      "th { color: var(--text-secondary); font-weight: 600; }\n"
      ".note { color: var(--muted); font-size: 12px; }\n"
      "</style>\n</head>\n<body>\n<div class=\"viz-root\">\n";
  out += "<h1>" + html_escape(title) + "</h1>\n";
  return out;
}

std::string page_tail() { return "</div>\n</body>\n</html>\n"; }

}  // namespace tussle::sim
