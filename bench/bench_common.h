#ifndef TUFAST_BENCH_BENCH_COMMON_H_
#define TUFAST_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_support/reporting.h"

namespace tufast {

/// Minimal flag parsing shared by the bench binaries:
///   --scale=<f>     dataset scale factor (default per bench, > 0)
///   --threads=<n>   worker threads (default 4, >= 1)
///   --seed=<n>      workload RNG seed (default 7)
///   --json-out=<p>  mirror all report tables/telemetry to a JSON file
///   --quick         shrink everything for smoke runs
///   --failpoint-trace=<p>  stress drivers: dump fired fault injections
///                   (site slot hit_index action, one per line) to a file
///                   for failing-seed replay diagnosis
///   --progress-chaos  stress drivers: additionally arm the progress-guard
///                   failpoints (forced victim re-aborts, breaker trips)
///                   to fuzz the L retry loop's backoff and the circuit
///                   breaker
///   --mvcc          enable the MVCC snapshot-read path
///                   (Config::enable_mvcc) where the bench supports it;
///                   streaming_updates adds its reader/writer-mix phase
///                   (reader abort rate, snapshot staleness, chain and
///                   reclamation telemetry, mirrored to --json-out)
///   --readers=<n>   reader threads for the reader/writer mix (0 =
///                   default: half the worker threads)
///   --mvcc-chaos    stress drivers: additionally arm the MVCC
///                   failpoints (forced version-reclaim passes, stretched
///                   stale-epoch snapshot windows) and run snapshot
///                   readers against the chaos write stream
///   --rate=<f>      serve_bench: offered open-loop arrival rate in
///                   requests/second (Poisson; > 0)
///   --zipf=<f>      serve_bench: Zipf key-skew alpha (0 = uniform,
///                   must be in [0, 4])
///   --tenants=interactive:<p>,bulk:<p>
///                   serve_bench: tenant mix in percent; both tiers
///                   required, must sum to 100
///   --slo-p99-us=<n> serve_bench: interactive-tier p99 SLO target in
///                   microseconds (> 0)
///   --duration=<f>  serve_bench: open-loop run length in seconds (> 0)
///   --serve-chaos   stress drivers: additionally arm the serving
///                   failpoints (forced run-queue/defer-queue bounces,
///                   breaker trips) against the serve engine and check
///                   the disposition-conservation invariants
///   --wal           streaming_updates: add the WAL-durability overhead
///                   column (Config::enable_wal with a log under the
///                   temp dir; wal_records/wal_bytes/wal_fsyncs land in
///                   the report and --json-out)
///   --checkpoint-every=<n>
///                   streaming_updates --wal: checkpoint + truncate the
///                   log every <n> applied batches (0 = never)
///   --crash-chaos   stress_fuzz: crash-injection harness — arm the WAL
///                   crash failpoints (torn write, short write, crash
///                   before fsync, partial checkpoint), kill the log
///                   mid-record, RecoverFromWal, and verify
///                   bank-conservation + exactly-once invariants on
///                   TuFast, with MVCC off and on
/// Malformed values (non-numeric, trailing junk, out of range) and
/// unknown flags are hard errors: a bench silently running with scale 0
/// measures nothing, and a typo'd switch would silently run the default
/// configuration.
struct BenchFlags {
  double scale = 1.0;
  int threads = 4;
  uint64_t seed = 7;
  std::string json_out;
  std::string failpoint_trace;
  bool quick = false;
  bool progress_chaos = false;
  bool mvcc = false;
  uint32_t readers = 0;
  bool mvcc_chaos = false;
  double rate = 50000.0;
  double zipf = 0.99;
  uint32_t interactive_percent = 80;  // --tenants; remainder is bulk
  uint64_t slo_p99_us = 2000;
  double duration = 2.0;
  bool serve_chaos = false;
  bool wal = false;
  uint64_t checkpoint_every = 0;
  bool crash_chaos = false;

  static BenchFlags Parse(int argc, char** argv, double default_scale) {
    BenchFlags flags;
    flags.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--scale=", 8) == 0) {
        flags.scale = ParseDouble(arg, arg + 8);
        if (flags.scale <= 0.0) Fail(arg, "must be > 0");
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        const long n = ParseLong(arg, arg + 10);
        if (n < 1 || n > 4096) Fail(arg, "must be in [1, 4096]");
        flags.threads = static_cast<int>(n);
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        const long n = ParseLong(arg, arg + 7);
        if (n < 0) Fail(arg, "must be >= 0");
        flags.seed = static_cast<uint64_t>(n);
      } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
        if (arg[11] == '\0') Fail(arg, "path must be non-empty");
        flags.json_out = arg + 11;
      } else if (std::strncmp(arg, "--failpoint-trace=", 18) == 0) {
        if (arg[18] == '\0') Fail(arg, "path must be non-empty");
        flags.failpoint_trace = arg + 18;
      } else if (std::strncmp(arg, "--readers=", 10) == 0) {
        const long n = ParseLong(arg, arg + 10);
        if (n < 0 || n > 4096) Fail(arg, "must be in [0, 4096]");
        flags.readers = static_cast<uint32_t>(n);
      } else if (std::strncmp(arg, "--rate=", 7) == 0) {
        flags.rate = ParseDouble(arg, arg + 7);
        if (!(flags.rate > 0.0) || flags.rate > 1e9) {
          Fail(arg, "must be in (0, 1e9]");
        }
      } else if (std::strncmp(arg, "--zipf=", 7) == 0) {
        flags.zipf = ParseDouble(arg, arg + 7);
        if (!(flags.zipf >= 0.0) || flags.zipf > 4.0) {
          Fail(arg, "must be in [0, 4]");
        }
      } else if (std::strncmp(arg, "--tenants=", 10) == 0) {
        flags.interactive_percent = ParseTenants(arg, arg + 10);
      } else if (std::strncmp(arg, "--slo-p99-us=", 13) == 0) {
        const long n = ParseLong(arg, arg + 13);
        if (n < 1 || n > 60'000'000) Fail(arg, "must be in [1, 6e7]");
        flags.slo_p99_us = static_cast<uint64_t>(n);
      } else if (std::strncmp(arg, "--duration=", 11) == 0) {
        flags.duration = ParseDouble(arg, arg + 11);
        if (!(flags.duration > 0.0) || flags.duration > 3600.0) {
          Fail(arg, "must be in (0, 3600]");
        }
      } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
        const long n = ParseLong(arg, arg + 19);
        if (n < 0) Fail(arg, "must be >= 0");
        flags.checkpoint_every = static_cast<uint64_t>(n);
      } else if (std::strcmp(arg, "--wal") == 0) {
        flags.wal = true;
      } else if (std::strcmp(arg, "--crash-chaos") == 0) {
        flags.crash_chaos = true;
      } else if (std::strcmp(arg, "--serve-chaos") == 0) {
        flags.serve_chaos = true;
      } else if (std::strcmp(arg, "--mvcc") == 0) {
        flags.mvcc = true;
      } else if (std::strcmp(arg, "--mvcc-chaos") == 0) {
        flags.mvcc_chaos = true;
      } else if (std::strcmp(arg, "--quick") == 0) {
        flags.quick = true;
        flags.scale = default_scale * 0.2;
      } else if (std::strcmp(arg, "--progress-chaos") == 0) {
        flags.progress_chaos = true;
      } else if (std::strncmp(arg, "--", 2) == 0) {
        Fail(arg, "unknown flag");
      }
    }
    if (!flags.json_out.empty()) JsonReport::SetOutputPath(flags.json_out);
    return flags;
  }

 private:
  [[noreturn]] static void Fail(const char* arg, const char* why) {
    std::fprintf(stderr, "bad flag '%s': %s\n", arg, why);
    std::exit(2);
  }

  static double ParseDouble(const char* arg, const char* value) {
    if (*value == '\0') Fail(arg, "missing value");
    char* end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0') Fail(arg, "not a number");
    return parsed;
  }

  static long ParseLong(const char* arg, const char* value) {
    if (*value == '\0') Fail(arg, "missing value");
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0') Fail(arg, "not an integer");
    return parsed;
  }

  /// Strict `--tenants=interactive:<p>,bulk:<p>` parser. Both tiers must
  /// be named (in that order), percentages must be integers in [0, 100]
  /// and sum to exactly 100 — a typo'd tenant spec silently serving the
  /// wrong mix would invalidate every latency number downstream. Returns
  /// the interactive percentage.
  static uint32_t ParseTenants(const char* arg, const char* value) {
    const char* p = value;
    if (std::strncmp(p, "interactive:", 12) != 0) {
      Fail(arg, "expected interactive:<pct>,bulk:<pct>");
    }
    p += 12;
    char* end = nullptr;
    const long inter = std::strtol(p, &end, 10);
    if (end == p || inter < 0 || inter > 100) {
      Fail(arg, "interactive pct must be an integer in [0, 100]");
    }
    p = end;
    if (std::strncmp(p, ",bulk:", 6) != 0) {
      Fail(arg, "expected interactive:<pct>,bulk:<pct>");
    }
    p += 6;
    const long bulk = std::strtol(p, &end, 10);
    if (end == p || *end != '\0' || bulk < 0 || bulk > 100) {
      Fail(arg, "bulk pct must be an integer in [0, 100]");
    }
    if (inter + bulk != 100) Fail(arg, "tenant percentages must sum to 100");
    return static_cast<uint32_t>(inter);
  }
};

}  // namespace tufast

#endif  // TUFAST_BENCH_BENCH_COMMON_H_
