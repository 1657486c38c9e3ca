// Microbenchmark: compact-window generation throughput per method and
// text length.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "sketch/sketch_scheme.h"
#include "window/window_generator.h"

namespace ndss {
namespace {

std::vector<Token> RandomText(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> text(n);
  for (auto& token : text) token = static_cast<Token>(rng.Uniform(32000));
  return text;
}

void BM_WindowGenStack(benchmark::State& state) {
  const std::vector<Token> text = RandomText(state.range(0), 1);
  SketchScheme family(SketchSchemeId::kIndependent, 1, 7);
  WindowGenerator generator(WindowGenMethod::kMonotonicStack);
  std::vector<CompactWindow> windows;
  for (auto _ : state) {
    windows.clear();
    generator.Generate(family, 0, text, 25, &windows);
    benchmark::DoNotOptimize(windows.data());
  }
  state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_WindowGenStack)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WindowGenRmq(benchmark::State& state) {
  const std::vector<Token> text = RandomText(10000, 1);
  SketchScheme family(SketchSchemeId::kIndependent, 1, 7);
  WindowGenerator generator(WindowGenMethod::kRmqDivideConquer,
                            static_cast<RmqKind>(state.range(0)));
  std::vector<CompactWindow> windows;
  for (auto _ : state) {
    windows.clear();
    generator.Generate(family, 0, text, 25, &windows);
    benchmark::DoNotOptimize(windows.data());
  }
  state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_WindowGenRmq)
    ->Arg(static_cast<int>(RmqKind::kSegmentTree))
    ->Arg(static_cast<int>(RmqKind::kSparseTable))
    ->Arg(static_cast<int>(RmqKind::kFischerHeun));

void BM_WindowGenByThreshold(benchmark::State& state) {
  const std::vector<Token> text = RandomText(50000, 2);
  SketchScheme family(SketchSchemeId::kIndependent, 1, 9);
  WindowGenerator generator;
  std::vector<CompactWindow> windows;
  for (auto _ : state) {
    windows.clear();
    generator.Generate(family, 0, text, state.range(0), &windows);
    benchmark::DoNotOptimize(windows.data());
  }
  state.SetItemsProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_WindowGenByThreshold)->Arg(25)->Arg(100)->Arg(400);

}  // namespace
}  // namespace ndss
