#ifndef TUFAST_COMMON_ZIPF_H_
#define TUFAST_COMMON_ZIPF_H_

#include <cstdint>

#include "common/rng.h"

namespace tufast {

/// Shared Zipf key sampler: rank r in [0, n) drawn with probability
/// proportional to 1/(r+1)^alpha via Rng::NextZipf's continuous
/// inverse-CDF approximation; alpha <= 0 degrades to uniform. Draws the
/// serving load generator's key skew.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double alpha) : n_(n == 0 ? 1 : n), alpha_(alpha) {}

  template <typename RngT>
  uint64_t Draw(RngT& rng) const {
    if (alpha_ <= 0.0) return rng.NextBounded(n_);
    return rng.NextZipf(n_, alpha_);
  }

  uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  uint64_t n_;
  double alpha_;
};

}  // namespace tufast

#endif  // TUFAST_COMMON_ZIPF_H_
