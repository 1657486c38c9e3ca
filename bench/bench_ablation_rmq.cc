// Ablation: compact-window generation cost by method — the paper's RMQ
// divide-and-conquer with three RMQ structures (segment tree = ALIGN's
// O(n log n); sparse table; Fischer–Heun O(n)/O(1)) versus the equivalent
// single-pass monotonic stack.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "sketch/sketch_scheme.h"
#include "window/window_generator.h"

int main() {
  using namespace ndss;
  const uint32_t base_texts = bench::Scaled(2000);
  SyntheticCorpus sc = bench::MakeBenchCorpus(base_texts, 32000, 1);
  const SketchScheme family(SketchSchemeId::kIndependent, 1, 42);

  bench::PrintHeader(
      "Ablation: window-generation method (t = 25, k = 1)",
      "same window set from every method; throughput differs");
  std::printf("corpus: %zu texts, %llu tokens\n", sc.corpus.num_texts(),
              static_cast<unsigned long long>(sc.corpus.total_tokens()));

  struct Config {
    WindowGenMethod method;
    RmqKind rmq;
    const char* name;
  };
  const Config configs[] = {
      {WindowGenMethod::kMonotonicStack, RmqKind::kFischerHeun,
       "monotonic_stack"},
      {WindowGenMethod::kRmqDivideConquer, RmqKind::kSegmentTree,
       "rmq_segment_tree (ALIGN)"},
      {WindowGenMethod::kRmqDivideConquer, RmqKind::kSparseTable,
       "rmq_sparse_table"},
      {WindowGenMethod::kRmqDivideConquer, RmqKind::kFischerHeun,
       "rmq_fischer_heun"},
  };

  std::printf("%-26s %12s %12s %14s\n", "method", "windows", "seconds",
              "Mtokens/s");
  for (const Config& config : configs) {
    WindowGenerator generator(config.method, config.rmq);
    std::vector<CompactWindow> windows;
    uint64_t count = 0;
    Stopwatch watch;
    for (size_t i = 0; i < sc.corpus.num_texts(); ++i) {
      windows.clear();
      generator.Generate(family, 0, sc.corpus.text(i), 25, &windows);
      count += windows.size();
    }
    const double seconds = watch.ElapsedSeconds();
    std::printf("%-26s %12llu %12.3f %14.2f\n", config.name,
                static_cast<unsigned long long>(count), seconds,
                sc.corpus.total_tokens() / seconds / 1e6);
  }
  return 0;
}
