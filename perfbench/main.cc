// Repository benchmark entry point (see NOTES.md next to this file):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints human-readable lines, then one JSON result line last. Exits 0
// only when every output check passed; 2 on a malformed flag.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseU64(const std::string& flag, const std::string& s) {
  if (s.empty() || s[0] == '-') Usage("bad " + flag + " '" + s + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') Usage("bad " + flag + " '" + s + "'");
  return v;
}

double ParsePositive(const std::string& flag, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || errno != 0 || *end != '\0' || !std::isfinite(v) ||
      v <= 0 || v > 3600) {
    Usage("bad " + flag + " '" + s + "'");
  }
  return v;
}

void PrintJson(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  o.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = ParseU64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = ParsePositive(flag, value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace '" + value + "'");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == o.workload;
  }
  if (!known) Usage("unknown workload '" + o.workload + "'");

  const perfbench::Report report = perfbench::RunWorkload(o);
  std::fflush(stdout);
  PrintJson(report);
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}
