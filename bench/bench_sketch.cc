// Sketching-subsystem benchmark and equivalence gate.
//
// Gates (run before any timing; a failure exits 1, which the nightly CI
// step keys on):
//   1. both schemes reproduce the golden hash values and sketches of
//      sketch/sketch_golden.h (the on-disk format contract);
//   2. a kIndependent index whose meta is rewritten in the pre-scheme v2
//      format reopens and answers bit-identically (old indexes stay valid);
//   3. per scheme, the out-of-core build produces byte-identical inverted
//      files to the in-memory build, and the disk searcher answers
//      bit-identically to the in-memory searcher.
//
// Timings: per-scheme hash-row fill and query-sketch throughput — the level
// where C-MinHash's one-permutation trick shows directly (k passes of
// SplitMix64 vs one pass plus k rotate/xor scans) — then full Fig 2 build
// wall time (window generation and sorting dominate, so the honest
// end-to-end delta is small), query latency, and Jaccard-estimation
// bias/MSE against the exact distinct Jaccard.
//
// Usage: bench_sketch [--json] [--quick] [--out=PATH]
//   --json   also write the machine-readable report (default
//            BENCH_sketch.json; see README "Benchmark reports")
//   --quick  smaller inputs / fewer iterations (CI-sized)
//   --out=   report path for --json

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "index/inverted_index_reader.h"
#include "index/posting.h"
#include "sketch/sketch_golden.h"
#include "sketch/sketch_scheme.h"

namespace ndss {
namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

constexpr SketchSchemeId kSchemes[] = {SketchSchemeId::kIndependent,
                                       SketchSchemeId::kCMinHash};

[[noreturn]] void FailGate(const std::string& gate, const std::string& why) {
  std::fprintf(stderr, "FATAL: equivalence gate '%s' failed: %s\n",
               gate.c_str(), why.c_str());
  std::exit(1);
}

struct Percentiles {
  double p50_us = 0;
  double p95_us = 0;
};

Percentiles ComputePercentiles(std::vector<double> micros) {
  Percentiles p;
  if (micros.empty()) return p;
  std::sort(micros.begin(), micros.end());
  p.p50_us = micros[micros.size() / 2];
  p.p95_us = micros[std::min(micros.size() - 1, micros.size() * 95 / 100)];
  return p;
}

template <typename Fn>
Percentiles TimeIterations(int iters, Fn&& fn) {
  std::vector<double> micros;
  micros.reserve(iters);
  for (int i = 0; i < iters; ++i) {
    Stopwatch watch;
    g_sink = g_sink + fn();
    micros.push_back(watch.ElapsedMicros());
  }
  return ComputePercentiles(micros);
}

/// Field-sensitive serialization of a search answer, so two searchers can
/// be compared for exact (bit-identical) agreement.
std::string Fingerprint(const SearchResult& result) {
  std::ostringstream out;
  for (const TextMatchRectangle& r : result.rectangles) {
    out << "R" << r.text << ":" << r.rect.x_begin << "," << r.rect.x_end
        << "," << r.rect.y_begin << "," << r.rect.y_end << ","
        << r.rect.collisions << ";";
  }
  for (const MatchSpan& s : result.spans) {
    out << "S" << s.text << ":" << s.begin << "," << s.end << ","
        << s.collisions << "," << s.estimated_similarity << ";";
  }
  return out.str();
}

std::vector<std::string> Fingerprints(
    Searcher& searcher, const std::vector<std::vector<Token>>& queries) {
  SearchOptions options;
  options.theta = 0.7;
  std::vector<std::string> prints;
  for (const auto& query : queries) {
    auto result = searcher.Search(query, options);
    if (!result.ok()) {
      FailGate("search", result.status().ToString());
    }
    prints.push_back(Fingerprint(*result));
  }
  return prints;
}

// ---- gate 1: golden vectors ---------------------------------------------

void GateGoldenVectors() {
  const std::string mismatch = sketch_golden::CheckGoldenVectors();
  if (!mismatch.empty()) FailGate("golden_vectors", mismatch);
}

// ---- gate 2: v2 meta compatibility ---------------------------------------

/// Re-encodes `meta` in the pre-scheme v2 format (no sketch field, v2
/// magic), byte-faithful to what a pre-v3 build wrote.
std::string EncodeV2Meta(const IndexMeta& meta) {
  std::string data;
  PutFixed64(&data, 0x324154454d58444eULL);  // "NDXMETA2"
  PutFixed32(&data, meta.k);
  PutFixed64(&data, meta.seed);
  PutFixed32(&data, meta.t);
  PutFixed64(&data, meta.num_texts);
  PutFixed64(&data, meta.total_tokens);
  PutFixed32(&data, meta.zone_step);
  PutFixed32(&data, meta.zone_threshold);
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));
  return data;
}

void GateV2MetaCompat(const Corpus& corpus,
                      const std::vector<std::vector<Token>>& queries) {
  const std::string dir = bench::ScratchDir("bench_sketch_v2");
  IndexBuildOptions options;
  options.k = 8;
  options.t = 25;
  auto stats = BuildIndexInMemory(corpus, dir, options);
  if (!stats.ok()) FailGate("v2_meta_compat", stats.status().ToString());

  auto v3 = Searcher::Open(dir);
  if (!v3.ok()) FailGate("v2_meta_compat", v3.status().ToString());
  const auto v3_prints = Fingerprints(*v3, queries);

  auto meta = IndexMeta::Load(dir);
  if (!meta.ok()) FailGate("v2_meta_compat", meta.status().ToString());
  auto write =
      WriteStringToFileAtomic(dir + "/index.meta", EncodeV2Meta(*meta));
  if (!write.ok()) FailGate("v2_meta_compat", write.ToString());

  auto v2 = Searcher::Open(dir);
  if (!v2.ok()) FailGate("v2_meta_compat", v2.status().ToString());
  if (v2->meta().sketch != SketchSchemeId::kIndependent) {
    FailGate("v2_meta_compat", "v2 meta did not load as kIndependent");
  }
  if (Fingerprints(*v2, queries) != v3_prints) {
    FailGate("v2_meta_compat",
             "answers changed after rewriting the meta in v2 format");
  }
}

// ---- gate 3: per-scheme build equivalence --------------------------------

/// Reads every window of every list of the index at `dir` into one sorted,
/// comparable set (text ids offset by func so all k functions coexist).
std::vector<KeyedWindow> DumpIndex(const std::string& dir, uint32_t k) {
  std::vector<KeyedWindow> all;
  for (uint32_t func = 0; func < k; ++func) {
    auto reader =
        InvertedIndexReader::Open(IndexMeta::InvertedIndexPath(dir, func));
    if (!reader.ok()) FailGate("build_equivalence", reader.status().ToString());
    for (const ListMeta& meta : reader->directory()) {
      std::vector<PostedWindow> windows;
      auto read = reader->ReadList(meta, &windows);
      if (!read.ok()) FailGate("build_equivalence", read.ToString());
      for (const PostedWindow& w : windows) {
        all.push_back(
            KeyedWindow{meta.key, w.text + func * 1000000u, w.l, w.c, w.r});
      }
    }
  }
  std::sort(all.begin(), all.end(), KeyedWindowLess);
  return all;
}

void GateBuildEquivalence(const Corpus& corpus,
                          const std::vector<std::vector<Token>>& queries) {
  const std::string dir = bench::ScratchDir("bench_sketch_equiv");
  const std::string corpus_path = dir + "/corpus.crp";
  auto write = WriteCorpusFile(corpus_path, corpus);
  if (!write.ok()) FailGate("build_equivalence", write.ToString());

  for (const SketchSchemeId scheme : kSchemes) {
    const std::string name = SketchSchemeName(scheme);
    IndexBuildOptions options;
    options.k = 8;
    options.t = 25;
    options.sketch = scheme;

    const std::string mem_dir = dir + "/mem_" + name;
    auto mem = BuildIndexInMemory(corpus, mem_dir, options);
    if (!mem.ok()) FailGate("build_equivalence", mem.status().ToString());

    IndexBuildOptions external = options;
    external.batch_tokens = 64 * 1024;  // force multiple batches
    external.num_partitions = 4;
    const std::string ext_dir = dir + "/ext_" + name;
    auto ext = BuildIndexExternal(corpus_path, ext_dir, external);
    if (!ext.ok()) FailGate("build_equivalence", ext.status().ToString());

    if (DumpIndex(mem_dir, options.k) != DumpIndex(ext_dir, options.k)) {
      FailGate("build_equivalence",
               name + ": external build windows differ from the in-memory "
                      "build");
    }

    auto disk = Searcher::Open(mem_dir);
    if (!disk.ok()) FailGate("build_equivalence", disk.status().ToString());
    auto memory = Searcher::InMemory(corpus, options);
    if (!memory.ok()) {
      FailGate("build_equivalence", memory.status().ToString());
    }
    if (Fingerprints(*disk, queries) != Fingerprints(*memory, queries)) {
      FailGate("build_equivalence",
               name + ": disk and in-memory searchers disagree");
    }
  }
}

// ---- hash-row / sketch throughput ----------------------------------------

struct ThroughputReport {
  std::string name;
  uint64_t items = 0;  ///< hash evaluations per iteration
  int iters = 0;
  Percentiles time;
  double mhashes_per_s() const {
    return time.p50_us > 0 ? static_cast<double>(items) / time.p50_us : 0;
  }
};

void PrintThroughput(const ThroughputReport& r) {
  std::printf("%-26s %12llu %6d %12.1f %12.1f %10.1f\n", r.name.c_str(),
              static_cast<unsigned long long>(r.items), r.iters,
              r.time.p50_us, r.time.p95_us, r.mhashes_per_s());
}

/// Times filling all k hash rows for `tokens` — the exact work the window
/// generator consumes per function. kIndependent pays k SplitMix64 passes;
/// kCMinHash pays one base pass plus k rotate/xor scans.
ThroughputReport BenchRowFill(SketchSchemeId id,
                              const std::vector<Token>& tokens, bool quick) {
  constexpr uint32_t kK = 16;
  const int iters = quick ? 8 : 20;
  const SketchScheme scheme(id, kK, 0x5eed);
  std::vector<uint64_t> row(tokens.size());
  std::vector<uint64_t> base(tokens.size());

  ThroughputReport report;
  report.name = std::string("row_fill/") + SketchSchemeName(id);
  report.items = static_cast<uint64_t>(tokens.size()) * kK;
  report.iters = iters;
  report.time = TimeIterations(iters, [&] {
    if (id == SketchSchemeId::kCMinHash) {
      scheme.FillBaseRow(tokens.data(), tokens.size(), base.data());
      for (uint32_t f = 0; f < kK; ++f) {
        scheme.FillHashRowFromBase(f, base.data(), tokens.size(),
                                   row.data());
      }
    } else {
      for (uint32_t f = 0; f < kK; ++f) {
        scheme.FillHashRow(f, tokens.data(), tokens.size(), row.data());
      }
    }
    return row.empty() ? uint64_t{0} : row.back();
  });
  return report;
}

/// Times the query-side ComputeSketch over a batch of short sequences.
ThroughputReport BenchComputeSketch(SketchSchemeId id, bool quick) {
  constexpr uint32_t kK = 16;
  constexpr size_t kLen = 64;
  const size_t count = quick ? 2000 : 10000;
  const int iters = quick ? 8 : 20;
  const SketchScheme scheme(id, kK, 0x5eed);

  Rng rng(17);
  std::vector<std::vector<Token>> sequences(count);
  for (auto& sequence : sequences) {
    sequence.resize(kLen);
    for (auto& token : sequence) {
      token = static_cast<Token>(rng.Uniform(32000));
    }
  }

  ThroughputReport report;
  report.name = std::string("compute_sketch/") + SketchSchemeName(id);
  report.items = static_cast<uint64_t>(count) * kLen * kK;
  report.iters = iters;
  std::vector<uint64_t> scratch;
  report.time = TimeIterations(iters, [&] {
    uint64_t sum = 0;
    for (const auto& sequence : sequences) {
      const MinHashSketch sketch =
          ComputeSketch(scheme, sequence.data(), sequence.size(), &scratch);
      sum += sketch.min_hashes[0];
    }
    return sum;
  });
  return report;
}

// ---- full build / query --------------------------------------------------

struct BuildReport {
  std::string scheme;
  uint64_t windows = 0;
  double generate_seconds = 0;
  double sort_seconds = 0;
  double total_seconds = 0;
};

BuildReport BenchBuild(SketchSchemeId id, const Corpus& corpus) {
  IndexBuildOptions options;
  options.k = 16;
  options.t = 25;
  options.sketch = id;
  const std::string dir =
      bench::ScratchDir(std::string("bench_sketch_build_") +
                        SketchSchemeName(id));
  auto stats = BuildIndexInMemory(corpus, dir, options);
  if (!stats.ok()) FailGate("build", stats.status().ToString());
  BuildReport report;
  report.scheme = SketchSchemeName(id);
  report.windows = stats->num_windows;
  report.generate_seconds = stats->generate_seconds;
  report.sort_seconds = stats->sort_seconds;
  report.total_seconds = stats->total_seconds;
  return report;
}

struct QueryReport {
  std::string scheme;
  double mean_latency_us = 0;
  double mean_spans = 0;
};

QueryReport BenchQuery(SketchSchemeId id, const Corpus& corpus,
                       const std::vector<std::vector<Token>>& queries) {
  IndexBuildOptions options;
  options.k = 16;
  options.t = 25;
  options.sketch = id;
  auto searcher = Searcher::InMemory(corpus, options);
  if (!searcher.ok()) FailGate("query", searcher.status().ToString());
  SearchOptions search;
  search.theta = 0.8;
  const bench::QueryRunResult run =
      bench::RunQueries(*searcher, queries, search);
  QueryReport report;
  report.scheme = SketchSchemeName(id);
  report.mean_latency_us = run.mean_latency * 1e6;
  report.mean_spans = run.mean_spans;
  return report;
}

// ---- estimation accuracy -------------------------------------------------

struct AccuracyReport {
  std::string scheme;
  uint32_t k = 0;
  uint64_t pairs = 0;
  double bias = 0;
  double mse = 0;
};

/// Bias and MSE of the sketch Jaccard estimate against the exact distinct
/// Jaccard over random correlated pairs (shared perturbed prefix, like the
/// paper's near-duplicate queries).
std::vector<AccuracyReport> BenchAccuracy(uint32_t k, bool quick) {
  const int pairs = quick ? 300 : 2000;
  const SketchScheme indep(SketchSchemeId::kIndependent, k, 0xfeed);
  const SketchScheme cmin(SketchSchemeId::kCMinHash, k, 0xfeed);

  Rng rng(2024);
  double err_indep = 0, err_cmin = 0, se_indep = 0, se_cmin = 0;
  std::vector<uint64_t> scratch;
  for (int p = 0; p < pairs; ++p) {
    const uint32_t vocab = 30 + static_cast<uint32_t>(rng.Uniform(300));
    const size_t na = 30 + rng.Uniform(100);
    const size_t nb = 30 + rng.Uniform(100);
    std::vector<Token> a(na), b(nb);
    for (size_t i = 0; i < na; ++i) {
      a[i] = static_cast<Token>(rng.Uniform(vocab));
    }
    const size_t shared = rng.Uniform(std::min(na, nb));
    for (size_t i = 0; i < nb; ++i) {
      b[i] = i < shared ? a[i] : static_cast<Token>(rng.Uniform(vocab));
    }
    const double truth = ExactDistinctJaccard(a.data(), na, b.data(), nb);
    const double est_indep =
        EstimateJaccard(ComputeSketch(indep, a.data(), na, &scratch),
                        ComputeSketch(indep, b.data(), nb, &scratch));
    const double est_cmin =
        EstimateJaccard(ComputeSketch(cmin, a.data(), na, &scratch),
                        ComputeSketch(cmin, b.data(), nb, &scratch));
    err_indep += est_indep - truth;
    err_cmin += est_cmin - truth;
    se_indep += (est_indep - truth) * (est_indep - truth);
    se_cmin += (est_cmin - truth) * (est_cmin - truth);
  }
  std::vector<AccuracyReport> reports(2);
  reports[0] = {"kindependent", k, static_cast<uint64_t>(pairs),
                err_indep / pairs, se_indep / pairs};
  reports[1] = {"cminhash", k, static_cast<uint64_t>(pairs),
                err_cmin / pairs, se_cmin / pairs};
  return reports;
}

int Run(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--quick] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "Sketching schemes: k-independent MinHash vs circulant C-MinHash",
      "equivalence gates run first (golden vectors, v2 meta compat, "
      "external-vs-in-memory builds); a mismatch aborts with exit 1");

  // Small corpus + queries shared by the gates.
  SyntheticCorpus gate_corpus = bench::MakeBenchCorpus(150, 8000, 31);
  const auto gate_queries =
      bench::MakeQueries(gate_corpus.corpus, 12, 48, 0.05, 8000, 32);
  GateGoldenVectors();
  GateV2MetaCompat(gate_corpus.corpus, gate_queries);
  GateBuildEquivalence(gate_corpus.corpus, gate_queries);
  std::printf("all equivalence gates passed\n\n");

  // Throughput kernels at k = 16 (the default).
  const size_t row_tokens = quick ? 200000 : 1000000;
  Rng rng(13);
  std::vector<Token> tokens(row_tokens);
  for (auto& token : tokens) {
    token = static_cast<Token>(rng.Uniform(32000));
  }
  std::printf("%-26s %12s %6s %12s %12s %10s\n", "kernel", "hashes",
              "iters", "p50 us", "p95 us", "Mhash/s");
  std::vector<ThroughputReport> kernels;
  for (const SketchSchemeId id : kSchemes) {
    kernels.push_back(BenchRowFill(id, tokens, quick));
    PrintThroughput(kernels.back());
  }
  for (const SketchSchemeId id : kSchemes) {
    kernels.push_back(BenchComputeSketch(id, quick));
    PrintThroughput(kernels.back());
  }
  // Pairs are pushed kIndependent first, kCMinHash second.
  const auto speedup = [&](size_t indep, size_t cmin) {
    return kernels[cmin].time.p50_us > 0
               ? kernels[indep].time.p50_us / kernels[cmin].time.p50_us
               : 0;
  };
  const double row_fill_speedup = speedup(0, 1);
  const double sketch_speedup = speedup(2, 3);
  std::printf("\nhash-row fill speedup (cminhash vs kindependent): %.2fx\n",
              row_fill_speedup);
  std::printf("query-sketch speedup: %.2fx\n\n", sketch_speedup);

  // Full Fig 2 build + query latency per scheme.
  SyntheticCorpus sc =
      bench::MakeBenchCorpus(bench::Scaled(quick ? 500 : 2000), 32000, 1);
  const auto queries =
      bench::MakeQueries(sc.corpus, quick ? 30 : 100, 64, 0.05, 32000, 9);
  std::printf("%-14s %12s %10s %10s %10s\n", "build", "windows", "gen s",
              "sort s", "total s");
  std::vector<BuildReport> builds;
  for (const SketchSchemeId id : kSchemes) {
    builds.push_back(BenchBuild(id, sc.corpus));
    std::printf("%-14s %12llu %10.3f %10.3f %10.3f\n",
                builds.back().scheme.c_str(),
                static_cast<unsigned long long>(builds.back().windows),
                builds.back().generate_seconds, builds.back().sort_seconds,
                builds.back().total_seconds);
  }
  std::printf("\n%-14s %14s %12s\n", "query", "mean lat us", "mean spans");
  std::vector<QueryReport> query_reports;
  for (const SketchSchemeId id : kSchemes) {
    query_reports.push_back(BenchQuery(id, sc.corpus, queries));
    std::printf("%-14s %14.1f %12.2f\n", query_reports.back().scheme.c_str(),
                query_reports.back().mean_latency_us,
                query_reports.back().mean_spans);
  }

  // Estimation accuracy at the default and a high k.
  std::printf("\n%-14s %4s %8s %12s %12s\n", "accuracy", "k", "pairs",
              "bias", "mse");
  std::vector<AccuracyReport> accuracy;
  for (const uint32_t k : {16u, 64u}) {
    for (const AccuracyReport& r : BenchAccuracy(k, quick)) {
      accuracy.push_back(r);
      std::printf("%-14s %4u %8llu %12.5f %12.6f\n", r.scheme.c_str(), r.k,
                  static_cast<unsigned long long>(r.pairs), r.bias, r.mse);
    }
  }

  if (json) {
    bench::JsonWriter writer;
    writer.BeginObject();
    writer.Field("bench", std::string("sketch"));
    writer.Field("quick", quick);
    writer.Field("scale", bench::ScaleFactor());
    writer.Field("gates_passed", true);
    writer.Field("row_fill_speedup", row_fill_speedup);
    writer.Field("sketch_speedup", sketch_speedup);
    writer.BeginArray("kernels");
    for (const ThroughputReport& r : kernels) {
      writer.BeginObject();
      writer.Field("name", r.name);
      writer.Field("hashes", r.items);
      writer.Field("iters", static_cast<uint64_t>(r.iters));
      writer.Field("p50_us", r.time.p50_us);
      writer.Field("p95_us", r.time.p95_us);
      writer.Field("mhash_per_s", r.mhashes_per_s());
      writer.EndObject();
    }
    writer.EndArray();
    writer.BeginArray("build");
    for (const BuildReport& r : builds) {
      writer.BeginObject();
      writer.Field("scheme", r.scheme);
      writer.Field("windows", r.windows);
      writer.Field("generate_seconds", r.generate_seconds);
      writer.Field("sort_seconds", r.sort_seconds);
      writer.Field("total_seconds", r.total_seconds);
      writer.EndObject();
    }
    writer.EndArray();
    writer.BeginArray("query");
    for (const QueryReport& r : query_reports) {
      writer.BeginObject();
      writer.Field("scheme", r.scheme);
      writer.Field("mean_latency_us", r.mean_latency_us);
      writer.Field("mean_spans", r.mean_spans);
      writer.EndObject();
    }
    writer.EndArray();
    writer.BeginArray("accuracy");
    for (const AccuracyReport& r : accuracy) {
      writer.BeginObject();
      writer.Field("scheme", r.scheme);
      writer.Field("k", static_cast<uint64_t>(r.k));
      writer.Field("pairs", r.pairs);
      writer.Field("bias", r.bias);
      writer.Field("mse", r.mse);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(writer.str().data(), 1, writer.str().size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ndss

int main(int argc, char** argv) { return ndss::Run(argc, argv); }
