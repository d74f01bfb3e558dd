// The dashboard kit: what the self-contained, zero-script HTML dashboards
// (scale, memory, execution and time-series) share — one page head with
// one stylesheet (light/dark via prefers-color-scheme), card scaffolding,
// and the number formatting every inline-SVG chart uses. Output is a pure
// function of the arguments, so dashboards stay byte-identical for a
// given profiler state.
#pragma once

#include <string>
#include <string_view>

namespace tussle::sim {

std::string html_escape(std::string_view s);

/// Fixed two decimals so SVG coordinates are platform-stable.
std::string fmt2(double v);

/// Short tile/label number: 1.2M, 3.4k, 12, 0.57.
std::string fmt_compact(double v);

/// Opens a `card` div with its heading and, unless empty, a stats line
/// (`note` is raw HTML). The caller closes the div.
void open_card(std::string& out, const std::string& heading, const std::string& note);

/// Everything up to and including the page's <h1>`title`</h1>: doctype,
/// head, the shared stylesheet, and the opening `viz-root` div.
std::string page_head(const std::string& title);

/// Closes the `viz-root` div and the page.
std::string page_tail();

}  // namespace tussle::sim
