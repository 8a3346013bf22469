// Reproduces paper Fig. 6: the probability that two concurrent vertex
// transactions contend, as a heat map over the two vertices' degrees.
// Workload model (as in the paper): a transaction reads a vertex and all
// its neighbors and writes the vertex. Two transactions T(a), T(b)
// conflict iff a's write set intersects b's footprint or vice versa:
//   a == b, a in N(b), or b in N(a).
// Expected shape: contention grows with both degrees; the high-degree
// corner is hot.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/reporting.h"
#include "common/rng.h"

namespace tufast {
namespace {

constexpr int kBuckets = 7;  // Degree buckets: 0,1-3,4-15,...,>=4096.

int BucketOf(uint32_t degree) {
  if (degree == 0) return 0;
  int b = 1;
  uint32_t limit = 4;
  while (degree >= limit && b < kBuckets - 1) {
    limit <<= 2;
    ++b;
  }
  return b;
}

std::string BucketName(int b) {
  if (b == 0) return "0";
  const uint32_t lo = b == 1 ? 1 : (1u << (2 * (b - 1)));
  if (b == kBuckets - 1) return std::to_string(lo) + "+";
  return std::to_string(lo) + "-" + std::to_string((1u << (2 * b)) - 1);
}

void AnalyticHeatmap() {
  const auto spec = BenchDatasets()[1];  // twitter-s, as in the paper.
  const Graph graph = GenerateDataset(spec);
  const VertexId n = graph.NumVertices();

  // Bucket vertices by degree for stratified sampling.
  std::vector<std::vector<VertexId>> by_bucket(kBuckets);
  for (VertexId v = 0; v < n; ++v) by_bucket[BucketOf(graph.OutDegree(v))].push_back(v);

  auto conflicts = [&](VertexId a, VertexId b) {
    if (a == b) return true;
    const auto na = graph.OutNeighbors(a);
    if (std::binary_search(na.begin(), na.end(), b)) return true;
    const auto nb = graph.OutNeighbors(b);
    return std::binary_search(nb.begin(), nb.end(), a);
  };

  constexpr int kSamples = 4000;
  Rng rng(17);
  std::vector<std::string> headers = {"deg(a) \\ deg(b)"};
  for (int b = 0; b < kBuckets; ++b) headers.push_back(BucketName(b));
  ReportTable table(headers);
  for (int ba = 0; ba < kBuckets; ++ba) {
    std::vector<std::string> row = {BucketName(ba)};
    for (int bb = 0; bb < kBuckets; ++bb) {
      if (by_bucket[ba].empty() || by_bucket[bb].empty()) {
        row.push_back("-");
        continue;
      }
      int hits = 0;
      for (int s = 0; s < kSamples; ++s) {
        const VertexId a =
            by_bucket[ba][rng.NextBounded(by_bucket[ba].size())];
        const VertexId b =
            by_bucket[bb][rng.NextBounded(by_bucket[bb].size())];
        if (conflicts(a, b)) ++hits;
      }
      row.push_back(ReportTable::Num(static_cast<double>(hits) / kSamples));
    }
    table.AddRow(std::move(row));
  }
  table.Print("Fig. 6 — pairwise contention probability by degree bucket (" +
              spec.name + ", read v+neighbors / write v)");
  std::printf(
      "expected shape: probability grows along both axes; the bottom-right "
      "(high-degree x high-degree) corner is the contention hot spot.\n");
}

int Main(int argc, char** argv) {
  BenchFlags::Parse(argc, argv, /*default=*/1.0);
  AnalyticHeatmap();
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
