// The report kit: what the self-contained, zero-script HTML dashboards
// (scale, memory, execution and time-series) share — one page head with
// one stylesheet (light/dark via prefers-color-scheme), card scaffolding,
// the number formatting every inline-SVG chart uses and the histogram
// chart the scale and memory dashboards share — plus the shard
// label and histogram bucket every JSON report shares. Output is a pure
// function of the arguments, so reports stay byte-identical for a given
// profiler state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/observer.hpp"

namespace tussle::sim {

/// "none" for kNoShard, "shared" for kSharedShard, else the decimal id.
std::string shard_label(ShardId s);

/// Power-of-two histogram bucket: 0 -> 0, and bucket b covers
/// [2^(b-1), 2^b - 1].
std::uint32_t log2_bucket(std::uint64_t v) noexcept;

std::string html_escape(std::string_view s);

/// Fixed two decimals so SVG coordinates are platform-stable.
std::string fmt2(double v);

/// Short tile/label number: 1.2M, 3.4k, 12, 0.57.
std::string fmt_compact(double v);

/// Opens a `card` div with its heading and, unless empty, a stats line
/// (`note` is raw HTML). The caller closes the div.
void open_card(std::string& out, const std::string& heading, const std::string& note);

/// A power-of-two histogram (bucket from log2_bucket -> count) as an
/// inline-SVG bar chart, one bar per bucket; each bar's tooltip reads
/// "<count> <unit>". Draws nothing for an empty or all-zero histogram.
void histogram_svg(std::string& out, const std::map<std::uint32_t, std::uint64_t>& hist,
                   const char* unit);

/// Everything up to and including the page's <h1>`title`</h1>: doctype,
/// head, the shared stylesheet, and the opening `viz-root` div.
std::string page_head(const std::string& title);

/// Closes the `viz-root` div and the page.
std::string page_tail();

}  // namespace tussle::sim
