#ifndef TUFAST_HTM_HTM_CONFIG_H_
#define TUFAST_HTM_HTM_CONFIG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace tufast {

/// Shared-memory word type all TuFast transactional operations act on.
/// Narrower/typed values are bit-cast onto it (see tm/txn.h helpers).
using TmWord = uint64_t;

/// Geometry of the modeled transactional cache for the emulated backend.
/// Defaults model the Haswell-era L1D the paper describes: 32 KB, 8-way
/// set-associative, 64-byte lines => 64 sets x 8 ways. A transaction
/// aborts with AbortCause::kCapacity as soon as it touches a 9th distinct
/// line mapping to one set, which is why random-access transactions abort
/// well before 32 KB of unique footprint (paper Fig. 4).
struct HtmConfig {
  /// Number of cache sets; must be a power of two.
  uint32_t num_sets = 64;
  /// Associativity: distinct lines per set before a capacity abort.
  uint32_t num_ways = 8;
  /// log2 of the conflict-detection line-table size. Collisions behave as
  /// false sharing (spurious conflicts), just like real line granularity.
  uint32_t table_bits = 20;
  /// Bound on conflict-path waiting (Backoff::Pause calls) before a
  /// transaction gives up and aborts itself instead of spinning.
  uint32_t max_conflict_spins = 2000;

  /// Max distinct cache lines a transaction can hold (= full L1).
  uint32_t MaxLines() const { return num_sets * num_ways; }
  /// Max transactional footprint in bytes.
  size_t CapacityBytes() const { return size_t{MaxLines()} * 64; }
};

/// Probability that a transaction touching `lines` distinct, uniformly
/// random cache lines fits the modeled cache, i.e. puts no more than
/// num_ways lines into any of the num_sets sets (paper Fig. 4's curve).
/// Poisson approximation: each set's load is ~Poisson(lines / num_sets),
/// independently, so Pr[fit] ~ Pr[Poisson <= num_ways]^num_sets. Exact at
/// the ends: at most num_ways lines always fit, more than MaxLines() never.
inline double CapacityFitProbability(const HtmConfig& cfg, uint32_t lines) {
  if (lines <= cfg.num_ways) return 1.0;
  if (lines > cfg.MaxLines()) return 0.0;
  const double lambda = static_cast<double>(lines) / cfg.num_sets;
  double term = std::exp(-lambda);  // Pr[a set holds exactly 0 lines].
  double per_set = term;
  for (uint32_t j = 1; j <= cfg.num_ways; ++j) {
    term *= lambda / j;
    per_set += term;
  }
  return std::pow(per_set, cfg.num_sets);
}

/// Maximum concurrently registered HTM threads. Reader sets are bitmaps.
inline constexpr int kMaxHtmThreads = 64;

}  // namespace tufast

#endif  // TUFAST_HTM_HTM_CONFIG_H_
