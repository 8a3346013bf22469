#include "bench_support/reporting.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/compiler.h"

namespace tufast {

ReportTable::ReportTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void ReportTable::AddRow(std::vector<std::string> cells) {
  TUFAST_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string ReportTable::Num(double value) {
  char buf[64];
  if (value == 0) {
    return "0";
  } else if (value >= 1000 || value <= -1000) {
    std::snprintf(buf, sizeof(buf), "%.3g", value);
  } else if (value >= 1 || value <= -1) {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", value);
  }
  return buf;
}

std::string ReportTable::Int(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

void ReportTable::Print(const std::string& title) const {
  std::printf("\n### %s\n\n", title.c_str());
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);

  JsonReport::AddTable(title, headers_, rows_);
}

namespace {

struct JsonReportState {
  std::mutex mu;
  std::string path;
  std::vector<std::string> tables;     // Pre-serialized JSON objects.
  std::vector<std::string> telemetry;  // Pre-serialized JSON objects.
};

JsonReportState& State() {
  static JsonReportState* state = new JsonReportState;  // Leak: exit-safe.
  return *state;
}

std::string JoinObjects(const std::vector<std::string>& objects) {
  std::string out = "[";
  for (size_t i = 0; i < objects.size(); ++i) {
    if (i > 0) out += ",";
    out += objects[i];
  }
  out += "]";
  return out;
}

std::string StringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonReport::Escape(items[i]);
    out += '"';
  }
  out += "]";
  return out;
}

std::string U64(uint64_t value) { return ReportTable::Int(value); }

/// Appends `"key":`. Built by appends, not `"\"" + std::string(...)`,
/// on which GCC 12 reports a false -Wrestrict overlap.
void AppendKey(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

}  // namespace

void JsonReport::SetOutputPath(const std::string& path) {
  auto& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  const bool first = s.path.empty();
  s.path = path;
  if (first && !path.empty()) std::atexit(&JsonReport::Write);
}

bool JsonReport::enabled() {
  auto& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return !s.path.empty();
}

void JsonReport::AddTable(const std::string& title,
                          const std::vector<std::string>& headers,
                          const std::vector<std::vector<std::string>>& rows) {
  if (!enabled()) return;
  std::string obj = "{\"title\":\"" + Escape(title) + "\",";
  obj += "\"headers\":" + StringArray(headers) + ",\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) obj += ",";
    obj += StringArray(rows[r]);
  }
  obj += "]}";
  auto& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.tables.push_back(std::move(obj));
}

void JsonReport::AddTelemetry(const std::string& name,
                              const SchedulerStats& stats,
                              const TelemetrySnapshot& snapshot) {
  if (!enabled()) return;
  std::string obj = "{\"name\":\"" + Escape(name) + "\",\"telemetry\":" +
                    TelemetryToJson(stats, snapshot) + "}";
  auto& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.telemetry.push_back(std::move(obj));
}

void JsonReport::Write() {
  auto& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return;
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json-out: cannot open '%s' for writing\n",
                 s.path.c_str());
    return;
  }
  const std::string doc = "{\"tables\":" + JoinObjects(s.tables) +
                          ",\"telemetry\":" + JoinObjects(s.telemetry) + "}\n";
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

std::string JsonReport::Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string LogHistogramToJson(const LogHistogram& hist) {
  std::string out = "{\"count\":" + U64(hist.count()) +
                    ",\"sum\":" + U64(hist.sum()) +
                    ",\"min\":" + U64(hist.min()) +
                    ",\"max\":" + U64(hist.max()) +
                    ",\"p50\":" + U64(hist.ApproxQuantile(0.5)) +
                    ",\"p99\":" + U64(hist.ApproxQuantile(0.99)) + "}";
  return out;
}

std::string TelemetryToJson(const SchedulerStats& stats,
                            const TelemetrySnapshot& snap) {
  std::string out = "{";
  out += "\"user_aborts\":" + U64(stats.user_aborts);
  out += ",\"deadlock_timeout_victims\":" + U64(snap.deadlock_timeout_victims);
  out += ",\"elided_attempts\":" + U64(stats.elided_attempts);

  out += ",\"commits\":{";
  for (int c = 0; c < kNumTxnClasses; ++c) {
    if (c > 0) out += ",";
    const TxnClass cls = static_cast<TxnClass>(c);
    AppendKey(out, TxnClassName(cls));
    out += "{\"count\":" + U64(stats.class_count[c]) +
           ",\"ops\":" + U64(stats.class_ops[c]) +
           ",\"latency_ns\":" + LogHistogramToJson(snap.commit_latency_ns[c]) +
           "}";
  }
  out += "}";

  out += ",\"time_in_mode_ns\":{";
  for (int m = 0; m < kNumSchedModes; ++m) {
    if (m > 0) out += ",";
    AppendKey(out, SchedModeName(static_cast<SchedMode>(m)));
    out += U64(snap.time_in_mode_ns[m]);
  }
  out += "}";

  out += ",\"aborts\":{";
  for (int m = 0; m < kNumSchedModes; ++m) {
    if (m > 0) out += ",";
    AppendKey(out, SchedModeName(static_cast<SchedMode>(m)));
    out += "{";
    for (int r = 0; r < kNumAbortReasons; ++r) {
      if (r > 0) out += ",";
      AppendKey(out, AbortReasonName(static_cast<AbortReason>(r)));
      out += U64(snap.aborts[m][r]);
    }
    out += "}";
  }
  out += "}";

  out += ",\"transitions\":{";
  bool first_edge = true;
  for (int m = 0; m < kNumSchedModes; ++m) {
    for (int n = 0; n < kNumSchedModes; ++n) {
      if (snap.transitions[m][n] == 0) continue;
      if (!first_edge) out += ",";
      first_edge = false;
      const std::string edge =
          std::string(SchedModeName(static_cast<SchedMode>(m))) + "->" +
          SchedModeName(static_cast<SchedMode>(n));
      AppendKey(out, edge.c_str());
      out += U64(snap.transitions[m][n]);
    }
  }
  out += "}";

  out += ",\"period\":" + LogHistogramToJson(snap.period_hist);
  out += ",\"last_period\":" + U64(snap.last_period);

  out += ",\"fusion\":{";
  out += "\"fused_regions\":" + U64(stats.fused_regions);
  out += ",\"fused_items\":" + U64(stats.fused_items);
  out += ",\"fusion_aborts\":" + U64(stats.fusion_aborts);
  out += ",\"width\":" + LogHistogramToJson(snap.fusion_width_hist);
  out += ",\"bisection_depth\":" + LogHistogramToJson(snap.bisection_depth_hist);
  out += "}";

  out += ",\"progress\":{";
  out += "\"backoff_events\":" + U64(stats.backoff_events);
  out += ",\"backoff_pauses\":" + U64(snap.backoff_pauses);
  out += ",\"breaker_trips\":" + U64(snap.breaker_trips);
  out += ",\"breaker_half_opens\":" + U64(snap.breaker_half_opens);
  out += ",\"breaker_closes\":" + U64(snap.breaker_closes);
  out += ",\"breaker_bypass\":" + U64(stats.breaker_bypass);
  out += ",\"txn_aborts\":" + LogHistogramToJson(snap.txn_abort_hist);
  out += ",\"max_txn_aborts\":" + U64(stats.max_txn_aborts);
  out += "}";

  out += ",\"serve\":{";
  out += "\"requests\":" + U64(stats.serve_requests);
  out += ",\"queue_delay_ns\":" + U64(stats.serve_queue_delay_ns);
  out += ",\"max_queue_delay_ns\":" + U64(stats.serve_max_queue_delay_ns);
  out += ",\"queue_delay\":" + LogHistogramToJson(snap.serve_queue_delay_hist);
  out += "}";
  out += "}";
  return out;
}

void PrintFusionSummary(const SchedulerStats& stats,
                        const TelemetrySnapshot& snap,
                        const std::string& title) {
  if (stats.fused_regions == 0) return;
  ReportTable table({"fused regions", "fused items", "avg width",
                     "p50 width", "p99 width", "fusion aborts",
                     "p50 bisect depth", "p99 bisect depth"});
  table.AddRow(
      {ReportTable::Int(stats.fused_regions),
       ReportTable::Int(stats.fused_items),
       ReportTable::Num(static_cast<double>(stats.fused_items) /
                        stats.fused_regions),
       ReportTable::Int(snap.fusion_width_hist.ApproxQuantile(0.5)),
       ReportTable::Int(snap.fusion_width_hist.ApproxQuantile(0.99)),
       ReportTable::Int(stats.fusion_aborts),
       ReportTable::Int(snap.bisection_depth_hist.ApproxQuantile(0.5)),
       ReportTable::Int(snap.bisection_depth_hist.ApproxQuantile(0.99))});
  table.Print(title);
}

void PrintProgressSummary(const SchedulerStats& stats,
                          const TelemetrySnapshot& snap,
                          const std::string& title) {
  if (stats.backoff_events == 0 && snap.breaker_trips == 0 &&
      stats.breaker_bypass == 0 && stats.max_txn_aborts == 0) {
    return;
  }
  ReportTable table({"backoff events", "backoff pauses", "breaker trips",
                     "half-opens", "closes", "bypassed", "p99 txn aborts",
                     "max txn aborts"});
  table.AddRow({ReportTable::Int(stats.backoff_events),
                ReportTable::Int(snap.backoff_pauses),
                ReportTable::Int(snap.breaker_trips),
                ReportTable::Int(snap.breaker_half_opens),
                ReportTable::Int(snap.breaker_closes),
                ReportTable::Int(stats.breaker_bypass),
                ReportTable::Int(snap.txn_abort_hist.ApproxQuantile(0.99)),
                ReportTable::Int(stats.max_txn_aborts)});
  table.Print(title);
}

}  // namespace tufast
