#ifndef TUFAST_BENCH_SUPPORT_REPORTING_H_
#define TUFAST_BENCH_SUPPORT_REPORTING_H_

#include <string>
#include <vector>

#include "common/histogram.h"
#include "tm/outcome.h"
#include "tm/telemetry.h"

namespace tufast {

/// Aligned-column table printer for benchmark harness output (the rows
/// and series each paper table/figure reports). Prints to stdout in a
/// markdown-compatible layout so EXPERIMENTS.md can embed outputs
/// directly. Every printed table is also mirrored into the process-wide
/// JsonReport when --json-out= is set.
class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Formats a double with sensible precision (3 significant-ish digits).
  static std::string Num(double value);
  static std::string Int(uint64_t value);

  /// Prints "### title" followed by the aligned table.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Process-wide JSON mirror of benchmark output, enabled by the shared
/// --json-out=<path> bench flag (BenchFlags::Parse calls SetOutputPath).
/// Collects every ReportTable printed plus any telemetry snapshots the
/// harness records, and writes one JSON document at process exit (or on
/// an explicit Write()). All entry points are no-ops until enabled, so
/// benches call them unconditionally.
class JsonReport {
 public:
  static void SetOutputPath(const std::string& path);
  static bool enabled();

  /// Mirrors one printed table: {"title":..,"headers":[..],"rows":[[..]]}.
  static void AddTable(const std::string& title,
                       const std::vector<std::string>& headers,
                       const std::vector<std::vector<std::string>>& rows);

  /// Records one scheduler's counts and telemetry snapshot under a name:
  /// {"name":..,"telemetry":{..}}.
  static void AddTelemetry(const std::string& name,
                           const SchedulerStats& stats,
                           const TelemetrySnapshot& snapshot);

  /// Writes the document now. Also runs automatically at exit.
  static void Write();

  /// JSON string escaping (exposed for tests).
  static std::string Escape(const std::string& text);
};

/// Serializers used by JsonReport and the telemetry golden tests. Every
/// count in the telemetry object is read from `stats`; `snapshot` adds
/// the clocks, histograms and matrices.
std::string LogHistogramToJson(const LogHistogram& hist);
std::string TelemetryToJson(const SchedulerStats& stats,
                            const TelemetrySnapshot& snapshot);

/// Prints (and mirrors to JSON) the batch-executor fusion summary: fused
/// regions/items, fusion aborts, and the width / bisection-depth
/// histogram quantiles. No-op when the run committed no fused regions
/// (per-item benches stay uncluttered).
void PrintFusionSummary(const SchedulerStats& stats,
                        const TelemetrySnapshot& snapshot,
                        const std::string& title);

/// Prints (and mirrors to JSON) the progress-guard summary: backoff
/// volume, starvation escalations/tokens, breaker transitions and
/// bypasses, and the per-transaction abort-count tail. No-op when the
/// run saw no guard activity at all (uncontended runs stay quiet).
void PrintProgressSummary(const SchedulerStats& stats,
                          const TelemetrySnapshot& snapshot,
                          const std::string& title);

}  // namespace tufast

#endif  // TUFAST_BENCH_SUPPORT_REPORTING_H_
