// Graph-serving front-end benchmark: an open-loop Poisson request stream
// (Zipf key skew, two tenant tiers) served against the transactional
// dynamic graph through the bounded-queue ServeEngine, run twice at
// equal offered load — admission control off, then on — so the
// interactive-tier tail with and without bulk shedding is directly
// comparable.
//
// Reported:
//   - per tenant/op latency (p50/p99/p999/max us, measured from the
//     request's *scheduled* arrival — no coordinated omission) and
//     goodput (completions inside the tier's SLO per second);
//   - the admission breakdown: offered/admitted/shed/deferred/
//     readmitted, controller trips by cause, and the scheduler-side
//     queue-delay plumbing (per-worker serve_requests must equal the
//     engine's executed count);
//   - a rate sweep (full mode only): offered rate vs. interactive p99
//     vs. shed fraction, the EXPERIMENTS.md capacity curve.
// Sanity failures (conservation, executed != admitted, zero goodput)
// exit 1.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/reporting.h"
#include "common/timer.h"
#include "graph/dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "serving/load_generator.h"
#include "serving/server.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

namespace sv = ::tufast::serving;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "SANITY FAILURE: %s\n", what.c_str());
    ++g_failures;
  }
}

using Engine = sv::ServeEngine<TuFastInstrumented>;

struct VariantResult {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deferred = 0;
  uint64_t readmitted = 0;
  double interactive_p99_us = 0;
  double goodput_per_s = 0;
  double seconds = 0;
};

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One open-loop run at `rate` req/s for `seconds`. The generator thread
/// paces offers on the engine's epoch clock; workers execute until the
/// queue drains. `latency_table`/`admission_table` may be null (rate
/// sweep reports its own rollup instead).
VariantResult RunVariant(const Graph& base, const BenchFlags& flags,
                         bool admission_on, double rate, double seconds,
                         const std::string& label,
                         ReportTable* latency_table,
                         ReportTable* admission_table) {
  auto dyn = DynamicGraph::FromCsr(base);
  EmulatedHtm htm;
  TuFastInstrumented::Config cfg;
  cfg.enable_mvcc = flags.mvcc;
  TuFastInstrumented tm(htm, dyn->capacity(), cfg);

  sv::LoadConfig lc;
  lc.rate = rate;
  lc.zipf_alpha = flags.zipf;
  lc.num_keys = base.NumVertices();
  lc.interactive_percent = flags.interactive_percent;
  sv::LoadGenerator gen(lc, flags.seed);

  Engine::Config ec;
  ec.num_workers = flags.threads;
  ec.interactive_slo_ns = flags.slo_p99_us * 1000;
  ec.admission.enabled = admission_on;
  ec.admission.slo_p99_ns = flags.slo_p99_us * 1000;
  Engine engine(tm, *dyn, ec);
  engine.Start();

  const uint64_t horizon_ns = static_cast<uint64_t>(seconds * 1e9);
  for (sv::Request r = gen.NextRequest(); r.arrival_ns < horizon_ns;
       r = gen.NextRequest()) {
    // Pace to the scheduled arrival. Sleep for long gaps, spin out the
    // last stretch; a backlogged system puts NowNs() past the arrival
    // already and we offer immediately (open loop: the clock never
    // waits for the server).
    while (engine.NowNs() < r.arrival_ns) {
      if (r.arrival_ns - engine.NowNs() > 200'000) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        std::this_thread::yield();
      }
    }
    engine.Offer(r);
    if ((r.seq & 0x3f) == 0) engine.TryReadmit(8);
  }
  engine.Drain();
  const double elapsed_s = static_cast<double>(engine.NowNs()) / 1e9;

  VariantResult res;
  res.seconds = elapsed_s;
  const sv::AdmissionController& ac = engine.admission();
  for (int t = 0; t < sv::kNumTenants; ++t) {
    const sv::Tenant tenant = static_cast<sv::Tenant>(t);
    res.offered += ac.Offered(tenant);
    res.admitted += ac.Admitted(tenant);
    res.shed += ac.Shed(tenant);
    res.deferred += ac.Deferred(tenant);
    res.readmitted += ac.Readmitted(tenant);
  }

  uint64_t slo_met_total = 0;
  for (int t = 0; t < sv::kNumTenants; ++t) {
    const sv::Tenant tenant = static_cast<sv::Tenant>(t);
    sv::LatencyHistogram tier;
    engine.MergeTenantLatency(tenant, &tier);
    for (int op = 0; op < sv::kNumOps; ++op) {
      const sv::Op o = static_cast<sv::Op>(op);
      const uint64_t done = engine.Completed(tenant, o);
      slo_met_total += engine.SloMet(tenant, o);
      if (done == 0 || latency_table == nullptr) continue;
      const sv::LatencyHistogram& h = engine.Latency(tenant, o);
      latency_table->AddRow(
          {label + " " + sv::TenantName(tenant) + "/" + sv::OpName(o),
           ReportTable::Int(done),
           ReportTable::Num(static_cast<double>(engine.SloMet(tenant, o)) /
                            elapsed_s),
           ReportTable::Num(Us(h.Quantile(0.50))),
           ReportTable::Num(Us(h.Quantile(0.99))),
           ReportTable::Num(Us(h.Quantile(0.999))),
           ReportTable::Num(Us(h.Max()))});
    }
    if (tier.Count() > 0 && latency_table != nullptr) {
      latency_table->AddRow(
          {label + " " + sv::TenantName(tenant) + "/all",
           ReportTable::Int(tier.Count()), std::string("-"),
           ReportTable::Num(Us(tier.Quantile(0.50))),
           ReportTable::Num(Us(tier.Quantile(0.99))),
           ReportTable::Num(Us(tier.Quantile(0.999))),
           ReportTable::Num(Us(tier.Max()))});
    }
    if (tenant == sv::Tenant::kInteractive) {
      res.interactive_p99_us = Us(tier.Quantile(0.99));
    }
  }
  res.goodput_per_s = static_cast<double>(slo_met_total) / elapsed_s;

  if (admission_table != nullptr) {
    admission_table->AddRow(
        {label, ReportTable::Int(res.offered), ReportTable::Int(res.admitted),
         ReportTable::Int(res.shed), ReportTable::Int(res.deferred),
         ReportTable::Int(res.readmitted), ReportTable::Int(ac.trips()),
         ReportTable::Int(ac.breaker_trips()),
         ReportTable::Int(ac.queue_delay_trips()),
         ReportTable::Int(ac.recoveries()),
         ReportTable::Int(engine.MaxQueueDelayNs() / 1000)});
  }

  // Invariants: every offered request got exactly one disposition, the
  // drain executed everything admitted, and the scheduler-side plumbing
  // saw exactly one queue-delay record per executed request.
  Check(ac.Conserved(), label + ": offered != admitted + shed + deferred");
  Check(engine.ExecutedTotal() == res.admitted,
        label + ": executed " + std::to_string(engine.ExecutedTotal()) +
            " != admitted " + std::to_string(res.admitted));
  const SchedulerStats stats = tm.AggregatedStats();
  Check(stats.serve_requests == engine.ExecutedTotal(),
        label + ": scheduler serve_requests " +
            std::to_string(stats.serve_requests) + " != executed " +
            std::to_string(engine.ExecutedTotal()));
  Check(res.goodput_per_s > 0, label + ": zero goodput");

  JsonReport::AddTelemetry("serve " + label, stats,
                           tm.AggregatedTelemetry().Snapshot());
  return res;
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/1.0);
  const int scale_log = std::max(
      8, 11 + static_cast<int>(std::llround(std::log2(flags.scale))));
  const Graph rmat =
      GenerateRmat(static_cast<uint32_t>(scale_log), 8, flags.seed + 17,
                   {.weighted = true});
  const double seconds =
      flags.quick ? std::min(flags.duration, 0.5) : flags.duration;

  // Admission off vs. on at equal offered load.
  ReportTable latency({"tenant/op", "completed", "goodput/s", "p50 us",
                       "p99 us", "p999 us", "max us"});
  ReportTable admission({"variant", "offered", "admitted", "shed",
                         "deferred", "readmitted", "trips", "breaker trips",
                         "queue delay trips", "recoveries",
                         "max queue delay us"});
  const VariantResult off =
      RunVariant(rmat, flags, /*admission_on=*/false, flags.rate, seconds,
                 "off", &latency, &admission);
  const VariantResult on =
      RunVariant(rmat, flags, /*admission_on=*/true, flags.rate, seconds,
                 "on", &latency, &admission);
  latency.Print("serve latency rmat-" + std::to_string(scale_log));
  admission.Print("serve admission rmat-" + std::to_string(scale_log));

  // Capacity curve for EXPERIMENTS.md (skipped under --quick to keep the
  // CI smoke short; absent tables are ignored by the compare gates).
  if (!flags.quick) {
    ReportTable sweep({"rate req/s", "offered", "admitted", "shed frac",
                       "interactive p99 us", "goodput/s"});
    for (const double mult : {0.5, 1.0, 2.0, 4.0}) {
      const double rate = flags.rate * mult;
      const VariantResult r =
          RunVariant(rmat, flags, /*admission_on=*/true, rate, seconds,
                     "sweep-" + ReportTable::Num(mult), nullptr, nullptr);
      sweep.AddRow({ReportTable::Num(rate), ReportTable::Int(r.offered),
                    ReportTable::Int(r.admitted),
                    ReportTable::Num(r.offered
                                         ? static_cast<double>(r.shed) /
                                               static_cast<double>(r.offered)
                                         : 0.0),
                    ReportTable::Num(r.interactive_p99_us),
                    ReportTable::Num(r.goodput_per_s)});
    }
    sweep.Print("serve rate sweep rmat-" + std::to_string(scale_log));
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "%d sanity failure(s)\n", g_failures);
    return 1;
  }
  std::printf(
      "expected shape: at an offered load past the service capacity the "
      "admission-on run sheds/defers bulk traffic and holds the "
      "interactive p99 below the admission-off run at equal offered "
      "load; both runs conserve offered == admitted + shed + deferred "
      "exactly.\n");
  std::printf("serve off: p99 %.1f us, goodput %.0f/s | on: p99 %.1f us, "
              "goodput %.0f/s, shed %llu, deferred %llu\n",
              off.interactive_p99_us, off.goodput_per_s,
              on.interactive_p99_us, on.goodput_per_s,
              static_cast<unsigned long long>(on.shed),
              static_cast<unsigned long long>(on.deferred));
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
