#ifndef NDSS_BENCH_BENCH_UTIL_H_
#define NDSS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpusgen/synthetic.h"
#include "ndss/ndss.h"

namespace ndss {
namespace bench {

/// Scale multiplier for corpus sizes, read once from NDSS_BENCH_SCALE
/// (default 1.0). Set to e.g. 4 to run the experiment grid on 4x larger
/// corpora.
double ScaleFactor();

/// Scales `base` by ScaleFactor(), with a floor of 1.
uint32_t Scaled(uint32_t base);

/// Creates and returns a scratch directory under /tmp for one bench,
/// wiping any previous contents.
std::string ScratchDir(const std::string& name);

/// The standard benchmark corpus: Zipfian tokens (s = 1.0) with planted
/// near-duplicates, deterministic for a given (num_texts, vocab, seed).
SyntheticCorpus MakeBenchCorpus(uint32_t num_texts, uint32_t vocab_size,
                                uint64_t seed);

/// Makes `count` query sequences of `length` tokens: perturbed spans of
/// corpus texts (real near-duplicate queries, like the paper's
/// GPT-generated queries that have matches in the corpus).
std::vector<std::vector<Token>> MakeQueries(const Corpus& corpus,
                                            uint32_t count, uint32_t length,
                                            double noise, uint32_t vocab_size,
                                            uint64_t seed);

/// Runs every query against the searcher; returns (mean latency seconds,
/// mean io seconds, mean cpu seconds, mean #spans found).
struct QueryRunResult {
  double mean_latency = 0;
  double mean_io_seconds = 0;
  double mean_cpu_seconds = 0;
  double mean_io_bytes = 0;
  double mean_spans = 0;
};
QueryRunResult RunQueries(Searcher& searcher,
                          const std::vector<std::vector<Token>>& queries,
                          const SearchOptions& options);

/// Prints a section header for one paper figure/table.
void PrintHeader(const std::string& experiment, const std::string& note);

/// Minimal ordered JSON emitter for checked-in BENCH_*.json reports (see
/// README "Benchmark reports"): objects/arrays nest via Begin/End pairs,
/// fields keep insertion order, doubles print with enough digits to
/// round-trip typical latencies. No dependencies, no escaping beyond
/// quotes/backslashes/control characters (keys and values are
/// bench-controlled strings).
class JsonWriter {
 public:
  /// Key-less variants are for array elements and the root value.
  void BeginObject(const std::string& key = "");
  void EndObject();
  void BeginArray(const std::string& key = "");
  void EndArray();
  void Field(const std::string& key, const std::string& value);
  void Field(const std::string& key, double value);
  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, bool value);

  /// The finished document (every Begin closed), newline-terminated.
  const std::string& str() const { return out_; }

 private:
  void Prefix(const std::string& key);
  void Escaped(const std::string& value);

  std::string out_;
  std::vector<bool> has_sibling_;  ///< per nesting level: need a comma?
};

/// Writes a "host" object naming the machine a report was measured on: the
/// CPU model from /proc/cpuinfo ("unknown" where it cannot be read), the
/// number of CPUs the process may run on (as nproc prints it) and the
/// compiler that built the bench.
void WriteHost(JsonWriter* writer);

}  // namespace bench
}  // namespace ndss

#endif  // NDSS_BENCH_BENCH_UTIL_H_
