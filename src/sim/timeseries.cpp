#include "sim/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/html.hpp"
#include "sim/json.hpp"
#include "sim/metric_registry.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {

// ---------------------------------------------------------------------------
// TimeSeries

void TimeSeries::append(SimTime tick, double value) {
  if (!ticks_.empty() && tick <= ticks_.back()) {
    throw std::logic_error("TimeSeries::append: ticks must be strictly increasing");
  }
  ticks_.push_back(tick);
  values_.push_back(value);
}

// ---------------------------------------------------------------------------
// Analysis

SeriesAnalysis analyze_series(const TimeSeries& s, const ConvergenceConfig& cfg) {
  SeriesAnalysis a;
  const auto& ticks = s.ticks();
  const auto& vals = s.values();
  const std::size_t n = vals.size();
  a.samples = n;
  if (n == 0) return a;

  a.min = a.max = vals[0];
  double sum = 0;
  for (double v : vals) {
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
    sum += v;
  }
  a.mean = sum / static_cast<double>(n);
  a.final_value = vals.back();

  const double range = a.max - a.min;
  const double band = 2.0 * std::max(range * cfg.tolerance, 1e-12);

  // Stationarity: grow a suffix backwards from the end while its own
  // min..max span stays inside the tolerance band. The maximal such suffix
  // is the "settled" tail; it counts as convergence only if it is at least
  // `window` samples long.
  double smin = vals[n - 1];
  double smax = vals[n - 1];
  std::size_t start = n - 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    const double lo = std::min(smin, vals[i]);
    const double hi = std::max(smax, vals[i]);
    if (hi - lo > band) break;
    smin = lo;
    smax = hi;
    start = i;
  }
  const std::size_t suffix_len = n - start;
  if (suffix_len >= cfg.window && n >= cfg.window) {
    a.converged = true;
    a.converged_at = ticks[start];
    double ssum = 0;
    for (std::size_t i = start; i < n; ++i) ssum += vals[i];
    a.converged_value = ssum / static_cast<double>(suffix_len);
  }

  // Dominant period: autocorrelation of the mean-removed series. A series
  // that settles is not an oscillator no matter what its transient did, so
  // this runs only when the stationarity test failed.
  if (!a.converged && n >= 6) {
    const std::size_t max_lag = n / 2;
    double denom = 0;
    for (double v : vals) denom += (v - a.mean) * (v - a.mean);
    if (denom > 1e-24) {
      std::vector<double> r(max_lag + 1, 0.0);
      for (std::size_t k = 2; k <= max_lag; ++k) {
        double num = 0;
        for (std::size_t i = 0; i + k < n; ++i) {
          num += (vals[i] - a.mean) * (vals[i + k] - a.mean);
        }
        r[k] = num / denom;
      }
      std::size_t best = 0;
      for (std::size_t k = 3; k + 1 <= max_lag; ++k) {
        const bool local_max = r[k] > r[k - 1] && r[k] >= r[k + 1];
        if (local_max && r[k] >= cfg.min_autocorrelation &&
            (best == 0 || r[k] > r[best])) {
          best = k;
        }
      }
      if (best != 0) {
        const double span = static_cast<double>((ticks.back() - ticks.front()).as_nanos());
        const double dt = span / static_cast<double>(n - 1);
        a.oscillating = true;
        a.dominant_period =
            SimTime::nanos(static_cast<std::int64_t>(dt * static_cast<double>(best)));
        a.oscillation_strength = r[best];
      }
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// TimeSeriesStore

TimeSeries& TimeSeriesStore::series(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return series_[it->second].second;
  index_.emplace(name, series_.size());
  series_.emplace_back(name, TimeSeries{});
  return series_.back().second;
}

const TimeSeries* TimeSeriesStore::find(const std::string& name) const noexcept {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second].second;
}

std::vector<std::string> TimeSeriesStore::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, ts] : series_) out.push_back(name);
  return out;
}

void TimeSeriesStore::merge_prefixed(const std::string& prefix, const TimeSeriesStore& other) {
  for (const auto& [name, ts] : other.series_) {
    TimeSeries& dst = series(prefix + name);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      dst.append(ts.ticks()[i], ts.values()[i]);
    }
  }
}

std::string TimeSeriesStore::to_csv() const {
  std::string out = "series,tick_ns,value\n";
  for (const auto& [name, ts] : series_) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      out += name;
      out += ',';
      out += std::to_string(ts.ticks()[i].as_nanos());
      out += ',';
      out += json_number(ts.values()[i]);
      out += '\n';
    }
  }
  return out;
}

std::string TimeSeriesStore::to_json(const ConvergenceConfig& cfg) const {
  JsonWriter w;
  w.begin_object();
  w.key("series").begin_array();
  for (const auto& [name, ts] : series_) {
    const SeriesAnalysis a = analyze_series(ts, cfg);
    w.begin_object();
    w.key("name").value(name);
    w.key("ticks_ns").begin_array();
    for (SimTime t : ts.ticks()) w.value(t.as_nanos());
    w.end_array();
    w.key("values").begin_array();
    for (double v : ts.values()) w.value(v);
    w.end_array();
    w.key("analysis").begin_object();
    w.key("samples").value(static_cast<std::int64_t>(a.samples));
    w.key("mean").value(a.mean);
    w.key("min").value(a.min);
    w.key("max").value(a.max);
    w.key("final").value(a.final_value);
    w.key("converged").value(a.converged);
    if (a.converged) {
      w.key("converged_at_ns").value(a.converged_at.as_nanos());
      w.key("converged_value").value(a.converged_value);
    }
    w.key("oscillating").value(a.oscillating);
    if (a.oscillating) {
      w.key("dominant_period_ns").value(a.dominant_period.as_nanos());
      w.key("oscillation_strength").value(a.oscillation_strength);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Dashboard

namespace {

/// Short deterministic number for axis labels and stat tiles.
std::string fmt_short(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Sim-time with an auto-picked unit, e.g. "250ms", "1.2s".
std::string fmt_time(SimTime t) {
  const double ns = static_cast<double>(t.as_nanos());
  const double abs_ns = std::fabs(ns);
  if (abs_ns < 1e3) return fmt_short(ns) + "ns";
  if (abs_ns < 1e6) return fmt_short(ns * 1e-3) + "us";
  if (abs_ns < 1e9) return fmt_short(ns * 1e-6) + "ms";
  return fmt_short(ns * 1e-9) + "s";
}

// Chart geometry shared by every series card.
constexpr double kW = 760, kH = 200;
constexpr double kML = 56, kMR = 14, kMT = 10, kMB = 26;
constexpr double kPlotW = kW - kML - kMR;
constexpr double kPlotH = kH - kMT - kMB;

void render_chart(std::string& out, const TimeSeries& ts, const SeriesAnalysis& a) {
  const auto& ticks = ts.ticks();
  const auto& vals = ts.values();
  const std::size_t n = ts.size();

  double lo = a.min, hi = a.max;
  if (hi - lo < 1e-12) {
    lo -= 0.5;
    hi += 0.5;
  }
  const double t0 = static_cast<double>(ticks.front().as_nanos());
  const double t1 = static_cast<double>(ticks.back().as_nanos());
  const double tspan = (t1 - t0) > 0 ? (t1 - t0) : 1.0;
  auto sx = [&](SimTime t) {
    return kML + (static_cast<double>(t.as_nanos()) - t0) / tspan * kPlotW;
  };
  auto sy = [&](double v) { return kMT + (hi - v) / (hi - lo) * kPlotH; };

  out += "<svg viewBox=\"0 0 " + fmt2(kW) + " " + fmt2(kH) +
         "\" role=\"img\" aria-label=\"" + std::to_string(n) +
         " samples\">\n";

  // Hairline grid + y labels at four levels.
  for (int g = 0; g <= 3; ++g) {
    const double v = lo + (hi - lo) * static_cast<double>(g) / 3.0;
    const std::string y = fmt2(sy(v));
    out += "<line class=\"grid\" x1=\"" + fmt2(kML) + "\" y1=\"" + y + "\" x2=\"" +
           fmt2(kW - kMR) + "\" y2=\"" + y + "\"/>\n";
    out += "<text class=\"tick\" x=\"" + fmt2(kML - 6) + "\" y=\"" + y +
           "\" dy=\"0.32em\" text-anchor=\"end\">" + html_escape(fmt_short(v)) +
           "</text>\n";
  }
  // X labels: first, middle, last tick.
  const SimTime mid = SimTime::nanos((ticks.front().as_nanos() + ticks.back().as_nanos()) / 2);
  const SimTime xt[3] = {ticks.front(), mid, ticks.back()};
  const char* anchors[3] = {"start", "middle", "end"};
  for (int i = 0; i < 3; ++i) {
    out += "<text class=\"tick\" x=\"" + fmt2(sx(xt[i])) + "\" y=\"" +
           fmt2(kH - 8) + "\" text-anchor=\"" + anchors[i] + "\">" +
           html_escape(fmt_time(xt[i])) + "</text>\n";
  }
  // Baseline.
  out += "<line class=\"axis\" x1=\"" + fmt2(kML) + "\" y1=\"" +
         fmt2(kMT + kPlotH) + "\" x2=\"" + fmt2(kW - kMR) + "\" y2=\"" +
         fmt2(kMT + kPlotH) + "\"/>\n";

  // Convergence marker: dashed vertical at the start of the stable suffix.
  if (a.converged) {
    const std::string x = fmt2(sx(a.converged_at));
    out += "<line class=\"ann\" x1=\"" + x + "\" y1=\"" + fmt2(kMT) + "\" x2=\"" + x +
           "\" y2=\"" + fmt2(kMT + kPlotH) + "\"/>\n";
  }

  // The trajectory itself.
  out += "<polyline class=\"line\" points=\"";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += ' ';
    out += fmt2(sx(ticks[i])) + "," + fmt2(sy(vals[i]));
  }
  out += "\"/>\n";

  // Native tooltips on sample points: only worth the bytes when the chart
  // is sparse enough for individual points to be hoverable.
  if (n <= 240) {
    for (std::size_t i = 0; i < n; ++i) {
      out += "<circle class=\"pt\" cx=\"" + fmt2(sx(ticks[i])) + "\" cy=\"" +
             fmt2(sy(vals[i])) + "\" r=\"6\"><title>" +
             html_escape(fmt_time(ticks[i])) + " &#8594; " +
             html_escape(json_number(vals[i])) + "</title></circle>\n";
    }
  }
  out += "</svg>\n";
}

}  // namespace

std::string timeseries_dashboard(const TimeSeriesStore& store, const std::string& title,
                                 const ConvergenceConfig& cfg) {
  std::vector<SeriesAnalysis> analyses;
  analyses.reserve(store.size());
  std::size_t total_samples = 0, n_converged = 0, n_oscillating = 0;
  for (const auto& [name, ts] : store.items()) {
    analyses.push_back(analyze_series(ts, cfg));
    total_samples += analyses.back().samples;
    n_converged += analyses.back().converged ? 1 : 0;
    n_oscillating += analyses.back().oscillating ? 1 : 0;
  }

  std::string out = page_head(title);
  out += "<p class=\"sub\">Simulated-time telemetry &#183; deterministic export</p>\n";

  out += "<div class=\"tiles\">\n";
  const std::pair<const char*, std::size_t> tiles[] = {
      {"series", store.size()},
      {"samples", total_samples},
      {"converged", n_converged},
      {"oscillating", n_oscillating},
  };
  for (const auto& [k, v] : tiles) {
    out += "<div class=\"tile\"><div class=\"v\">" + std::to_string(v) +
           "</div><div class=\"k\">" + k + "</div></div>\n";
  }
  out += "</div>\n";

  std::size_t idx = 0;
  for (const auto& [name, ts] : store.items()) {
    const SeriesAnalysis& a = analyses[idx++];
    out += "<div class=\"card\">\n<h2><span class=\"dot\"></span>" + html_escape(name) +
           "</h2>\n";
    out += "<p class=\"stats\">final <b>" + html_escape(fmt_short(a.final_value)) +
           "</b> &#183; mean <b>" + html_escape(fmt_short(a.mean)) + "</b> &#183; range <b>" +
           html_escape(fmt_short(a.min)) + " &#8230; " + html_escape(fmt_short(a.max)) +
           "</b> &#183; <span class=\"verdict\">";
    if (a.converged) {
      out += "converged at " + html_escape(fmt_time(a.converged_at)) + " (value " +
             html_escape(fmt_short(a.converged_value)) + ")";
    } else if (a.oscillating) {
      out += "oscillating, period " + html_escape(fmt_time(a.dominant_period)) +
             " (autocorr " + html_escape(fmt_short(a.oscillation_strength)) + ")";
    } else {
      out += "still moving";
    }
    out += "</span></p>\n";
    if (!ts.empty()) {
      render_chart(out, ts, a);
      out += "<details class=\"tbl\"><summary>Data table</summary>\n";
      if (ts.size() <= 64) {
        out += "<table><tr><th>t</th><th>value</th></tr>\n";
        for (std::size_t i = 0; i < ts.size(); ++i) {
          out += "<tr><td>" + html_escape(fmt_time(ts.ticks()[i])) + "</td><td>" +
                 html_escape(json_number(ts.values()[i])) + "</td></tr>\n";
        }
        out += "</table>\n";
      } else {
        out += "<p class=\"note\">" + std::to_string(ts.size()) +
               " samples &#8212; use the CSV export for the full table.</p>\n";
      }
      out += "</details>\n";
    }
    out += "</div>\n";
  }

  out += page_tail();
  return out;
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder

TimeSeriesRecorder::TimeSeriesRecorder(Duration interval) : interval_(interval) {
  if (interval.as_nanos() <= 0) {
    throw std::invalid_argument("TimeSeriesRecorder: interval must be positive");
  }
}

void TimeSeriesRecorder::probe(std::string name, std::function<double()> fn) {
  Source src;
  src.kind = Source::Kind::kProbe;
  src.name = std::move(name);
  src.fn = std::move(fn);
  sources_.push_back(std::move(src));
}

void TimeSeriesRecorder::track_counter(std::string name, const Counter& counter) {
  Source src;
  src.kind = Source::Kind::kCounterDelta;
  src.name = std::move(name);
  src.counter = &counter;
  src.last_count = counter.value();
  sources_.push_back(std::move(src));
}

void TimeSeriesRecorder::track_time_weighted(std::string name, const TimeWeighted& tw) {
  Source src;
  src.kind = Source::Kind::kTimeWeighted;
  src.name = std::move(name);
  src.tw = &tw;
  sources_.push_back(std::move(src));
}

void TimeSeriesRecorder::watch(MetricRegistry& registry, const std::string& name) {
  const char* kind = registry.kind(name);
  if (kind == nullptr) {
    throw std::logic_error("TimeSeriesRecorder::watch: no instrument named '" + name + "'");
  }
  const std::string k = kind;
  if (k == "counter") {
    track_counter(name, registry.counter(name));
  } else if (k == "time_weighted") {
    track_time_weighted(name, registry.time_weighted(name));
  } else if (k == "gauge") {
    probe(name, [&registry, name] { return registry.gauge_value(name); });
  } else if (k == "summary") {
    // Instrument addresses are stable for the registry's lifetime.
    const Summary& s = registry.summary(name);
    probe(name + ".mean", [&s] { return s.mean(); });
  } else {
    throw std::logic_error("TimeSeriesRecorder::watch: cannot sample a " + k +
                           " ('" + name + "')");
  }
}

void TimeSeriesRecorder::sample(SimTime tick) {
  for (Source& src : sources_) {
    switch (src.kind) {
      case Source::Kind::kProbe:
        store_.series(src.name).append(tick, src.fn());
        break;
      case Source::Kind::kCounterDelta: {
        const std::int64_t cur = src.counter->value();
        store_.series(src.name).append(tick, static_cast<double>(cur - src.last_count));
        src.last_count = cur;
        break;
      }
      case Source::Kind::kTimeWeighted:
        store_.series(src.name + ".current").append(tick, src.tw->current());
        store_.series(src.name + ".avg").append(tick, src.tw->value_at(tick));
        break;
    }
  }
  last_sampled_ = tick;
  sampled_any_ = true;
}

void TimeSeriesRecorder::maybe_sample(SimTime now) {
  while (next_due_ <= now) {
    sample(next_due_);
    next_due_ += interval_;
  }
}

void TimeSeriesRecorder::attach(Simulator& sim, SimTime horizon) {
  const SimTime start = sim.now();
  sample(start);
  const std::int64_t iv = interval_.as_nanos();
  // Pre-schedule every aligned tick up to the horizon rather than using
  // schedule_every: a self-rescheduling event would keep an otherwise-empty
  // queue alive, changing when run() drains for scenarios that run to
  // quiescence instead of to a horizon.
  for (std::int64_t k = start.as_nanos() / iv + 1; k * iv <= horizon.as_nanos(); ++k) {
    const SimTime t = SimTime::nanos(k * iv);
    sim.schedule_at(t, [this, t] { sample(t); });
  }
  next_due_ = SimTime::nanos((horizon.as_nanos() / iv + 1) * iv);
}

void TimeSeriesRecorder::finish(SimTime now) {
  if (!sampled_any_ || now > last_sampled_) sample(now);
}

}  // namespace tussle::sim
