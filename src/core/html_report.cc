#include "src/core/html_report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/core/analysis.h"
#include "src/core/span_analysis.h"
#include "src/obs/rollup.h"
#include "src/workload/job.h"

namespace philly {
namespace {

// Fixed chart geometry; every chart shares it so the page lines up.
constexpr double kWidth = 640.0;
constexpr double kHeight = 260.0;
constexpr double kPadLeft = 56.0;
constexpr double kPadRight = 16.0;
constexpr double kPadTop = 28.0;
constexpr double kPadBottom = 40.0;

// Downsampling window for the time-series charts.
constexpr SimDuration kRollupWindow = Hours(1);

const char* const kPalette[] = {"#2563eb", "#dc2626", "#059669", "#d97706",
                                "#7c3aed", "#0891b2"};

std::string HtmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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

// Short presentation-only number format (charts, tiles); NOT the round-trip
// codec the NDJSON streams use.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

struct Series {
  std::string label;
  std::vector<std::pair<double, double>> points;  // (x, y)
};

struct Range {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  void Cover(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  bool Valid() const { return lo <= hi; }
};

// A multi-line chart with axes, tick labels, and a legend. Degenerate ranges
// (single point, empty series) are widened so the math stays finite.
std::string LineChartSvg(const std::string& title, const std::vector<Series>& series,
                         const std::string& x_label, const std::string& y_label) {
  Range xr;
  Range yr;
  for (const Series& s : series) {
    for (const auto& [x, y] : s.points) {
      xr.Cover(x);
      yr.Cover(y);
    }
  }
  if (!xr.Valid()) {
    xr = {0.0, 1.0};
  }
  if (!yr.Valid()) {
    yr = {0.0, 1.0};
  }
  if (xr.hi == xr.lo) {
    xr.hi = xr.lo + 1.0;
  }
  if (yr.hi == yr.lo) {
    yr.hi = yr.lo + 1.0;
  }
  const double plot_w = kWidth - kPadLeft - kPadRight;
  const double plot_h = kHeight - kPadTop - kPadBottom;
  const auto px = [&](double x) {
    return kPadLeft + (x - xr.lo) / (xr.hi - xr.lo) * plot_w;
  };
  const auto py = [&](double y) {
    return kPadTop + plot_h - (y - yr.lo) / (yr.hi - yr.lo) * plot_h;
  };

  std::ostringstream out;
  // Inline SVG in an HTML document needs no xmlns (the parser namespaces
  // <svg> itself), and omitting it keeps the file free of any URL at all.
  out << "<svg viewBox=\"0 0 " << kWidth << " " << kHeight
      << "\" role=\"img\">\n";
  out << "<text x=\"" << kWidth / 2 << "\" y=\"16\" class=\"ct\">"
      << HtmlEscape(title) << "</text>\n";
  // Frame + gridlines with tick labels (5 ticks per axis).
  out << "<rect x=\"" << kPadLeft << "\" y=\"" << kPadTop << "\" width=\""
      << plot_w << "\" height=\"" << plot_h << "\" class=\"frame\"/>\n";
  for (int i = 0; i <= 4; ++i) {
    const double fx = xr.lo + (xr.hi - xr.lo) * i / 4.0;
    const double fy = yr.lo + (yr.hi - yr.lo) * i / 4.0;
    out << "<line x1=\"" << px(fx) << "\" y1=\"" << kPadTop << "\" x2=\""
        << px(fx) << "\" y2=\"" << kPadTop + plot_h << "\" class=\"grid\"/>\n";
    out << "<line x1=\"" << kPadLeft << "\" y1=\"" << py(fy) << "\" x2=\""
        << kPadLeft + plot_w << "\" y2=\"" << py(fy) << "\" class=\"grid\"/>\n";
    out << "<text x=\"" << px(fx) << "\" y=\"" << kHeight - kPadBottom + 16
        << "\" class=\"tick\">" << Num(fx) << "</text>\n";
    out << "<text x=\"" << kPadLeft - 6 << "\" y=\"" << py(fy) + 4
        << "\" class=\"tick ty\">" << Num(fy) << "</text>\n";
  }
  out << "<text x=\"" << kPadLeft + plot_w / 2 << "\" y=\"" << kHeight - 6
      << "\" class=\"al\">" << HtmlEscape(x_label) << "</text>\n";
  out << "<text x=\"14\" y=\"" << kPadTop + plot_h / 2
      << "\" class=\"al\" transform=\"rotate(-90 14 " << kPadTop + plot_h / 2
      << ")\">" << HtmlEscape(y_label) << "</text>\n";

  for (size_t i = 0; i < series.size(); ++i) {
    const char* color = kPalette[i % (sizeof(kPalette) / sizeof(kPalette[0]))];
    out << "<polyline fill=\"none\" stroke=\"" << color
        << "\" stroke-width=\"1.5\" points=\"";
    for (const auto& [x, y] : series[i].points) {
      out << Num(px(x)) << ',' << Num(py(y)) << ' ';
    }
    out << "\"/>\n";
    // Legend swatch + label, top-right, one row per series.
    const double ly = kPadTop + 12 + 14.0 * static_cast<double>(i);
    out << "<rect x=\"" << kWidth - kPadRight - 130 << "\" y=\"" << ly - 8
        << "\" width=\"10\" height=\"3\" fill=\"" << color << "\"/>\n";
    out << "<text x=\"" << kWidth - kPadRight - 116 << "\" y=\"" << ly - 3
        << "\" class=\"lg\">" << HtmlEscape(series[i].label) << "</text>\n";
  }
  out << "</svg>\n";
  return out.str();
}

// Horizontal bar chart (the Fig 1 lifecycle funnel).
std::string BarChartSvg(const std::string& title,
                        const std::vector<std::pair<std::string, int64_t>>& rows) {
  int64_t max_count = 1;
  for (const auto& [label, count] : rows) {
    max_count = std::max(max_count, count);
  }
  const double row_h = 22.0;
  const double height = kPadTop + row_h * static_cast<double>(rows.size()) + 12.0;
  const double label_w = 120.0;
  const double plot_w = kWidth - label_w - kPadRight - 60.0;

  std::ostringstream out;
  out << "<svg viewBox=\"0 0 " << kWidth << " " << height
      << "\" role=\"img\">\n";
  out << "<text x=\"" << kWidth / 2 << "\" y=\"16\" class=\"ct\">"
      << HtmlEscape(title) << "</text>\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const double y = kPadTop + row_h * static_cast<double>(i);
    const double w =
        plot_w * static_cast<double>(rows[i].second) / static_cast<double>(max_count);
    out << "<text x=\"" << label_w - 6 << "\" y=\"" << y + 14
        << "\" class=\"tick ty\">" << HtmlEscape(rows[i].first) << "</text>\n";
    out << "<rect x=\"" << label_w << "\" y=\"" << y + 4 << "\" width=\""
        << std::max(w, 0.5) << "\" height=\"14\" fill=\"" << kPalette[0]
        << "\"/>\n";
    out << "<text x=\"" << label_w + std::max(w, 0.5) + 6 << "\" y=\"" << y + 14
        << "\" class=\"lg\">" << rows[i].second << "</text>\n";
  }
  out << "</svg>\n";
  return out.str();
}

Series CdfSeriesOf(const StreamingHistogram& hist, const std::string& label,
                   bool log10_x) {
  Series s;
  s.label = label;
  for (const auto& point : hist.CdfSeries()) {
    const double x = log10_x ? std::log10(std::max(point.value, 1e-3)) : point.value;
    s.points.emplace_back(x, point.cumulative);
  }
  return s;
}

void SummaryTile(std::ostringstream& out, const std::string& label,
                 const std::string& value) {
  out << "<div class=\"tile\"><div class=\"tv\">" << HtmlEscape(value)
      << "</div><div class=\"tl\">" << HtmlEscape(label) << "</div></div>\n";
}

}  // namespace

std::string RenderHtmlDashboard(const HtmlDashboardInput& input) {
  static const std::vector<TelemetrySample> kNoSamples;
  const std::vector<TelemetrySample>& samples =
      input.samples != nullptr ? *input.samples : kNoSamples;

  TelemetryRollup rollup(kRollupWindow);
  rollup.AddAll(samples);

  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
      << "<title>" << HtmlEscape(input.title) << "</title>\n"
      << "<style>\n"
      << "body{font-family:system-ui,sans-serif;margin:24px;color:#111}\n"
      << "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
      << ".tiles{display:flex;flex-wrap:wrap;gap:12px}\n"
      << ".tile{border:1px solid #ddd;border-radius:6px;padding:10px 16px;"
      << "min-width:110px}\n"
      << ".tv{font-size:20px;font-weight:600}.tl{font-size:12px;color:#666}\n"
      << ".charts{display:flex;flex-wrap:wrap;gap:16px}\n"
      << "svg{max-width:660px;border:1px solid #eee;border-radius:6px}\n"
      << ".ct{font-size:13px;font-weight:600;text-anchor:middle}\n"
      << ".tick{font-size:10px;fill:#555;text-anchor:middle}\n"
      << ".ty{text-anchor:end}\n.al{font-size:11px;fill:#333;text-anchor:middle}\n"
      << ".lg{font-size:10px;fill:#333}\n"
      << ".frame{fill:none;stroke:#999}\n.grid{stroke:#eee}\n"
      << "table{border-collapse:collapse;margin:8px 0}\n"
      << "th,td{border:1px solid #ddd;padding:4px 10px;font-size:12px;"
      << "text-align:right}\nth{background:#f5f5f5}td:first-child,"
      << "th:first-child{text-align:left}\n"
      << "</style>\n</head>\n<body>\n"
      << "<h1>" << HtmlEscape(input.title) << "</h1>\n";

  // ---- summary tiles ----
  out << "<div class=\"tiles\">\n";
  SummaryTile(out, "telemetry samples", std::to_string(samples.size()));
  double peak_occ = 0.0;
  int64_t queue_max = 0;
  for (const TelemetrySample& s : samples) {
    peak_occ = std::max(peak_occ, s.occupancy);
    queue_max = std::max<int64_t>(queue_max, s.queued_jobs);
  }
  SummaryTile(out, "peak occupancy", Num(peak_occ * 100.0) + "%");
  SummaryTile(out, "peak queue depth", std::to_string(queue_max));
  SummaryTile(out, "median util (observed)",
              Num(rollup.util_observed_pct().Quantile(0.5)) + "%");
  if (!samples.empty()) {
    const TelemetrySample& last = samples.back();
    SummaryTile(out, "locality relaxations",
                std::to_string(last.locality_relaxations));
    SummaryTile(out, "scheduler backoffs", std::to_string(last.backoffs));
    SummaryTile(out, "preemptions", std::to_string(last.preemptions));
    SummaryTile(out, "fault kills", std::to_string(last.fault_kills));
  }
  if (input.jobs != nullptr) {
    SummaryTile(out, "jobs", std::to_string(input.jobs->size()));
  }
  out << "</div>\n";

  // ---- time series from the rollup ----
  out << "<h2>Cluster time series</h2>\n<div class=\"charts\">\n";
  {
    Series occ{"occupancy %", {}};
    Series exp{"util expected %", {}};
    Series obs{"util observed %", {}};
    for (const auto& [start, w] : rollup.windows()) {
      const double days = static_cast<double>(start) / static_cast<double>(Hours(24));
      occ.points.emplace_back(days, w.MeanOccupancy() * 100.0);
      exp.points.emplace_back(days, w.MeanUtilExpected());
      obs.points.emplace_back(days, w.MeanUtilObserved());
    }
    out << LineChartSvg("GPU occupancy and utilization", {occ, exp, obs}, "days",
                        "percent");
  }
  {
    Series queued{"queued (window max)", {}};
    Series running{"running (window max)", {}};
    for (const auto& [start, w] : rollup.windows()) {
      const double days = static_cast<double>(start) / static_cast<double>(Hours(24));
      queued.points.emplace_back(days, static_cast<double>(w.queued_max));
      running.points.emplace_back(days, static_cast<double>(w.running_max));
    }
    out << LineChartSvg("Queue depth and running jobs", {queued, running}, "days",
                        "jobs");
  }
  out << "</div>\n";

  // ---- fleet routing section (phillyctl fleet --html) ----
  if (input.fleet != nullptr) {
    const FleetDashboardSection& fleet = *input.fleet;
    out << "<h2>Fleet routing (" << HtmlEscape(fleet.router) << ")</h2>\n";
    out << "<div class=\"tiles\">\n";
    SummaryTile(out, "clusters", std::to_string(fleet.clusters.size()));
    SummaryTile(out, "jobs routed", std::to_string(fleet.total_jobs));
    SummaryTile(out, "spilled off home", std::to_string(fleet.spilled_jobs));
    out << "</div>\n";
    out << "<table><tr><th>cluster</th><th>GPUs</th><th>jobs</th>"
        << "<th>home</th><th>routed in</th><th>routed away</th>"
        << "<th>mean occ %</th><th>p95 queue (min)</th></tr>\n";
    std::vector<std::pair<std::string, int64_t>> rows;
    rows.reserve(fleet.clusters.size());
    for (const FleetDashboardSection::Cluster& c : fleet.clusters) {
      out << "<tr><td>" << HtmlEscape(c.name) << "</td><td>" << c.total_gpus
          << "</td><td>" << c.jobs << "</td><td>" << c.home_jobs << "</td><td>"
          << c.routed_in << "</td><td>" << c.routed_away << "</td><td>"
          << Num(c.mean_occupancy * 100.0) << "</td><td>"
          << Num(c.p95_queue_minutes) << "</td></tr>\n";
      rows.emplace_back(c.name, c.jobs);
    }
    out << "</table>\n<div class=\"charts\">\n"
        << BarChartSvg("Jobs per cluster", rows) << "</div>\n";
  }

  // ---- Fig 1 analogue: lifecycle funnel from the event stream ----
  if (input.events != nullptr) {
    std::array<int64_t, kNumSchedEventKinds> counts = {};
    for (const SchedEvent& e : *input.events) {
      ++counts[static_cast<size_t>(e.kind)];
    }
    std::vector<std::pair<std::string, int64_t>> rows;
    rows.reserve(kNumSchedEventKinds);
    for (int k = 0; k < kNumSchedEventKinds; ++k) {
      rows.emplace_back(std::string(ToString(static_cast<SchedEventKind>(k))),
                        counts[static_cast<size_t>(k)]);
    }
    out << "<h2>Job lifecycle (Fig 1 analogue)</h2>\n<div class=\"charts\">\n"
        << BarChartSvg("Scheduler events by kind", rows) << "</div>\n";
  }

  // ---- "Why jobs waited": per-VC x per-cause blame from the span stream ----
  if (input.spans != nullptr && !input.spans->empty()) {
    const auto totals = VcBlameTotalsFromSpans(*input.spans);
    std::array<int64_t, kNumBlameCodes> overall = {};
    for (const auto& per_vc : totals) {
      for (int c = 0; c < kNumBlameCodes; ++c) {
        overall[static_cast<size_t>(c)] += per_vc[static_cast<size_t>(c)];
      }
    }
    out << "<h2>Why jobs waited (blame attribution)</h2>\n";
    out << "<table><tr><th>VC</th>";
    for (int c = 0; c < kNumBlameCodes; ++c) {
      out << "<th>" << HtmlEscape(ToString(static_cast<BlameCode>(c)))
          << " (h)</th>";
    }
    out << "</tr>\n";
    const auto hours = [](int64_t seconds) {
      return Num(static_cast<double>(seconds) / static_cast<double>(Hours(1)));
    };
    for (size_t vc = 0; vc < totals.size(); ++vc) {
      out << "<tr><td>vc " << vc << "</td>";
      for (int c = 0; c < kNumBlameCodes; ++c) {
        out << "<td>" << hours(totals[vc][static_cast<size_t>(c)]) << "</td>";
      }
      out << "</tr>\n";
    }
    out << "<tr><td>all</td>";
    for (int c = 0; c < kNumBlameCodes; ++c) {
      out << "<td>" << hours(overall[static_cast<size_t>(c)]) << "</td>";
    }
    out << "</tr>\n</table>\n";
    std::vector<std::pair<std::string, int64_t>> rows;
    rows.reserve(kNumBlameCodes);
    for (int c = 0; c < kNumBlameCodes; ++c) {
      rows.emplace_back(std::string(ToString(static_cast<BlameCode>(c))),
                        overall[static_cast<size_t>(c)]);
    }
    out << "<div class=\"charts\">\n"
        << BarChartSvg("Attributed waiting seconds by cause", rows) << "</div>\n";
  }

  // ---- Fig 3 / Fig 8 analogues from job records ----
  if (input.jobs != nullptr) {
    const QueueDelayResult delays = AnalyzeQueueDelays(*input.jobs);
    std::vector<Series> delay_series;
    for (int b = 0; b < kNumSizeBuckets; ++b) {
      delay_series.push_back(CdfSeriesOf(
          delays.overall[static_cast<size_t>(b)],
          std::string(ToString(static_cast<SizeBucket>(b))), /*log10_x=*/true));
    }
    out << "<h2>Queue delay CDFs (Fig 3 analogue)</h2>\n<div class=\"charts\">\n"
        << LineChartSvg("Queueing delay by job size", delay_series,
                        "log10 minutes", "CDF")
        << "</div>\n";

    const ConvergenceResult conv = AnalyzeConvergence(*input.jobs);
    const std::vector<Series> conv_series = {
        CdfSeriesOf(conv.passed_lowest, "passed: lowest loss", false),
        CdfSeriesOf(conv.passed_within, "passed: within 0.1%", false),
        CdfSeriesOf(conv.killed_lowest, "killed: lowest loss", false),
        CdfSeriesOf(conv.killed_within, "killed: within 0.1%", false),
    };
    out << "<h2>Convergence CDFs (Fig 8 analogue)</h2>\n<div class=\"charts\">\n"
        << LineChartSvg("Fraction of epochs to reach final loss", conv_series,
                        "fraction of executed epochs", "CDF")
        << "</div>\n";
  }

  out << "</body>\n</html>\n";
  return out.str();
}

}  // namespace philly
