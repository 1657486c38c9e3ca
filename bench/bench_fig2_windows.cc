// Figure 2(a)-(d): number of compact windows generated vs length threshold
// t, number of hash functions k, BPE vocabulary size, and corpus size.
// Also validates Theorem 1's expectation 2(n+1)/(t+1) - 1 per text.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "sketch/sketch_scheme.h"
#include "tokenizer/bpe_tokenizer.h"
#include "tokenizer/bpe_trainer.h"
#include "window/window_generator.h"

namespace ndss {
namespace {

uint64_t CountWindows(const Corpus& corpus, uint32_t k, uint32_t t,
                      uint64_t seed = 0x5eed5eed5eed5eedULL) {
  const SketchScheme family(SketchSchemeId::kIndependent, k, seed);
  WindowGenerator generator;
  std::vector<CompactWindow> windows;
  uint64_t total = 0;
  for (uint32_t func = 0; func < k; ++func) {
    for (size_t i = 0; i < corpus.num_texts(); ++i) {
      windows.clear();
      generator.Generate(family, func, corpus.text(i), t, &windows);
      total += windows.size();
    }
  }
  return total;
}

double TheoryWindows(const Corpus& corpus, uint32_t k, uint32_t t) {
  double expected = 0;
  for (size_t i = 0; i < corpus.num_texts(); ++i) {
    expected += ExpectedWindowCount(corpus.text_length(i), t);
  }
  return expected * k;
}

}  // namespace
}  // namespace ndss

int main() {
  using namespace ndss;
  const uint32_t base_texts = bench::Scaled(2000);

  bench::PrintHeader(
      "Figure 2(a)-(b): #compact windows vs length threshold t and k",
      "paper: count is inversely proportional to t, linear in k");
  SyntheticCorpus sc = bench::MakeBenchCorpus(base_texts, 32000, 1);
  std::printf("corpus: %zu texts, %llu tokens\n", sc.corpus.num_texts(),
              static_cast<unsigned long long>(sc.corpus.total_tokens()));
  std::printf("%6s %4s %15s %15s %8s\n", "t", "k", "windows", "theory",
              "ratio");
  for (uint32_t t : {25u, 50u, 100u, 200u}) {
    for (uint32_t k : {1u, 4u, 16u}) {
      const uint64_t count = CountWindows(sc.corpus, k, t);
      const double theory = TheoryWindows(sc.corpus, k, t);
      std::printf("%6u %4u %15llu %15.0f %8.3f\n", t, k,
                  static_cast<unsigned long long>(count), theory,
                  count / theory);
    }
  }

  bench::PrintHeader(
      "Figure 2(c): #compact windows vs BPE vocabulary size",
      "paper: larger vocabulary -> slightly fewer tokens -> fewer windows");
  const std::string raw = GenerateSyntheticEnglish(
      bench::Scaled(20000), 42);
  std::printf("raw text: %zu bytes\n", raw.size());
  std::printf("%8s %12s %15s\n", "vocab", "tokens", "windows(t=25,k=1)");
  for (uint32_t vocab : {512u, 1024u, 2048u, 4096u}) {
    BpeTrainerOptions trainer_options;
    trainer_options.vocab_size = vocab;
    BpeTrainer trainer(trainer_options);
    // Train on a prefix to keep training cheap; encode the whole text.
    trainer.AddText(std::string_view(raw).substr(
        0, std::min<size_t>(raw.size(), 400000)));
    auto model = trainer.Train();
    if (!model.ok()) {
      std::fprintf(stderr, "BPE training failed\n");
      return 1;
    }
    BpeTokenizer tokenizer(*model);
    Corpus corpus;
    // Split the raw text into 64 pseudo-documents.
    const size_t chunk = raw.size() / 64;
    for (size_t off = 0; off + chunk <= raw.size(); off += chunk) {
      corpus.AddText(tokenizer.Encode(
          std::string_view(raw).substr(off, chunk)));
    }
    const uint64_t count = CountWindows(corpus, 1, 25);
    std::printf("%8u %12llu %15llu\n", vocab,
                static_cast<unsigned long long>(corpus.total_tokens()),
                static_cast<unsigned long long>(count));
  }

  bench::PrintHeader("Figure 2(d): #compact windows vs corpus size",
                     "paper: count grows linearly with the corpus");
  std::printf("%10s %12s %15s %15s\n", "texts", "tokens", "windows(t=100)",
              "theory");
  for (uint32_t factor : {1u, 2u, 4u, 8u}) {
    SyntheticCorpus scaled =
        bench::MakeBenchCorpus(base_texts * factor / 4, 64000, 2);
    const uint64_t count = CountWindows(scaled.corpus, 1, 100);
    std::printf("%10zu %12llu %15llu %15.0f\n", scaled.corpus.num_texts(),
                static_cast<unsigned long long>(scaled.corpus.total_tokens()),
                static_cast<unsigned long long>(count),
                TheoryWindows(scaled.corpus, 1, 100));
  }
  return 0;
}
