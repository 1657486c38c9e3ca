// Query hot-path kernel benchmark and equivalence gate.
//
// Measures each rewritten kernel against its reference oracle
// (src/query/reference/): the IntervalScan sweep on Zipfian-skewed
// intervals, CollisionCount, block varint decode of compressed posting
// runs, the (text, l) window sort, the (text, begin) span-key sort, and
// end-to-end query QPS over an in-memory index. Before any timing, every
// kernel's output is verified against the oracle on the bench input —
// a mismatch exits 1, which is what the nightly CI step keys on. Each
// kernel and its oracle are timed in alternation, and the reported speedup
// is the median of the per-iteration ratios.
//
// Usage: bench_hot_path [--json] [--quick] [--out=PATH]
//   --json   also write the machine-readable report (default
//            BENCH_query_hot_path.json; see README "Benchmark reports")
//   --quick  smaller inputs / fewer iterations (CI-sized)
//   --out=   report path for --json

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "corpusgen/zipf.h"
#include "index/varint_block.h"
#include "query/collision_count.h"
#include "query/interval_scan.h"
#include "query/radix_sort.h"
#include "query/reference/reference_kernels.h"

namespace ndss {
namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

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

struct KernelReport {
  std::string name;
  uint64_t items = 0;
  int iters = 0;
  Percentiles fast;
  Percentiles ref;
  double speedup_p50 = 0;  ///< median of the per-iteration ref/fast ratios
  double speedup() const { return speedup_p50; }
};

/// Times `fast` and `ref` in alternation, one call of each per iteration
/// (which goes first flips every iteration), so a clock-frequency step or
/// a noisy neighbour lands on both sides of a pair alike. The speedup is
/// the median of the per-iteration ratios ref / fast, not a ratio of two
/// medians taken at different moments.
template <typename Fast, typename Ref>
KernelReport TimePaired(std::string name, uint64_t items, int iters,
                        Fast&& fast, Ref&& ref) {
  std::vector<double> fast_us, ref_us, ratios;
  fast_us.reserve(iters);
  ref_us.reserve(iters);
  ratios.reserve(iters);
  const auto time = [](auto& fn) {
    Stopwatch watch;
    g_sink = g_sink + fn();
    return watch.ElapsedMicros();
  };
  for (int i = 0; i < iters; ++i) {
    double f = 0;
    double r = 0;
    if (i % 2 == 0) {
      f = time(fast);
      r = time(ref);
    } else {
      r = time(ref);
      f = time(fast);
    }
    fast_us.push_back(f);
    ref_us.push_back(r);
    if (f > 0) ratios.push_back(r / f);
  }
  KernelReport report;
  report.name = std::move(name);
  report.items = items;
  report.iters = iters;
  report.fast = ComputePercentiles(fast_us);
  report.ref = ComputePercentiles(ref_us);
  report.speedup_p50 = ComputePercentiles(ratios).p50_us;
  return report;
}

void PrintKernel(const KernelReport& r) {
  std::printf("%-16s %10llu %6d %12.1f %12.1f %12.1f %12.1f %9.2fx\n",
              r.name.c_str(), static_cast<unsigned long long>(r.items),
              r.iters, r.fast.p50_us, r.fast.p95_us, r.ref.p50_us,
              r.ref.p95_us, r.speedup());
}

[[noreturn]] void FailEquivalence(const std::string& kernel) {
  std::fprintf(stderr,
               "FATAL: kernel '%s' disagrees with its reference oracle\n",
               kernel.c_str());
  std::exit(1);
}

// ---- interval sweep ------------------------------------------------------

std::vector<Interval> MakeZipfianIntervals(size_t m, uint32_t range,
                                           uint64_t seed) {
  // Begins drawn Zipf(s = 1.05) over `range` coordinates: a few popular
  // coordinates accumulate deep interval pileups, the regime where the old
  // O(|active|) removal and per-group member copies went quadratic.
  Rng rng(seed);
  ZipfSampler zipf(range, 1.05);
  std::vector<Interval> intervals;
  intervals.reserve(m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t begin = static_cast<uint32_t>(zipf.Sample(rng));
    const uint32_t length = 16 + static_cast<uint32_t>(rng.Uniform(112));
    intervals.push_back({begin, begin + length, i});
  }
  return intervals;
}

bool SameGroups(const std::vector<IntervalGroup>& a,
                const std::vector<IntervalGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t g = 0; g < a.size(); ++g) {
    if (a[g].overlap_begin != b[g].overlap_begin ||
        a[g].overlap_end != b[g].overlap_end) {
      return false;
    }
    std::vector<uint32_t> ma = a[g].members, mb = b[g].members;
    std::sort(ma.begin(), ma.end());
    std::sort(mb.begin(), mb.end());
    if (ma != mb) return false;
  }
  return true;
}

KernelReport BenchIntervalSweep(bool quick) {
  const size_t m = quick ? 4000 : 20000;
  const uint32_t alpha = 4;
  const int iters = quick ? 8 : 20;
  const std::vector<Interval> intervals = MakeZipfianIntervals(m, 2048, 11);

  std::vector<IntervalGroup> fast_groups, ref_groups;
  if (!IntervalScan(intervals, alpha, &fast_groups).ok() ||
      !reference::IntervalScan(intervals, alpha, &ref_groups).ok() ||
      !SameGroups(fast_groups, ref_groups)) {
    FailEquivalence("interval_sweep");
  }

  SweepGroups sweep;
  std::vector<IntervalGroup> groups;
  return TimePaired(
      "interval_sweep", m, iters,
      [&] {
        if (!IntervalSweep(intervals, alpha, &sweep).ok()) return uint64_t{0};
        return static_cast<uint64_t>(sweep.groups.size() + sweep.adds.size());
      },
      [&] {
        groups.clear();
        if (!reference::IntervalScan(intervals, alpha, &groups).ok()) {
          return uint64_t{0};
        }
        return static_cast<uint64_t>(groups.size());
      });
}

// ---- collision count -----------------------------------------------------

KernelReport BenchCollisionCount(bool quick) {
  const size_t m = quick ? 300 : 800;
  const uint32_t alpha = 4;
  const int iters = quick ? 6 : 12;
  Rng rng(23);
  ZipfSampler zipf(512, 1.05);
  std::vector<PostedWindow> windows;
  windows.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t c = 64 + static_cast<uint32_t>(zipf.Sample(rng));
    const uint32_t l = c - std::min<uint32_t>(c, 1 + rng.Uniform(24));
    const uint32_t r = c + 1 + static_cast<uint32_t>(rng.Uniform(24));
    windows.push_back(PostedWindow{0, l, c, r});
  }

  std::vector<MatchRectangle> fast_rects, ref_rects;
  if (!CollisionCount(windows, alpha, &fast_rects).ok() ||
      !reference::CollisionCount(windows, alpha, &ref_rects).ok() ||
      fast_rects != ref_rects) {
    FailEquivalence("collision_count");
  }

  std::vector<MatchRectangle> rects;
  return TimePaired(
      "collision_count", m, iters,
      [&] {
        rects.clear();
        if (!CollisionCount(windows, alpha, &rects).ok()) return uint64_t{0};
        return static_cast<uint64_t>(rects.size());
      },
      [&] {
        rects.clear();
        if (!reference::CollisionCount(windows, alpha, &rects).ok()) {
          return uint64_t{0};
        }
        return static_cast<uint64_t>(rects.size());
      });
}

// ---- block varint decode -------------------------------------------------

struct EncodedList {
  std::string bytes;
  uint64_t count = 0;
  uint32_t run = 64;  ///< the writer's default zone step
};

EncodedList MakeEncodedList(uint64_t count, uint64_t seed) {
  // Writer-faithful stream: runs of `run` windows, each run restarting with
  // an absolute text id, then (text delta, l, c - l, r - c) per window.
  // Value magnitudes mirror real postings: small text deltas, multi-byte l.
  Rng rng(seed);
  EncodedList list;
  list.count = count;
  uint32_t text = 0;
  uint32_t prev_text = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (rng.Uniform(4) == 0) text += static_cast<uint32_t>(rng.Uniform(40));
    const uint32_t l = static_cast<uint32_t>(rng.Uniform(1u << 20));
    const uint32_t c_delta = static_cast<uint32_t>(rng.Uniform(64));
    const uint32_t r_delta = static_cast<uint32_t>(rng.Uniform(64));
    if (i % list.run == 0) {
      PutVarint32(&list.bytes, text);
    } else {
      PutVarint32(&list.bytes, text - prev_text);
    }
    prev_text = text;
    PutVarint32(&list.bytes, l);
    PutVarint32(&list.bytes, c_delta);
    PutVarint32(&list.bytes, r_delta);
  }
  return list;
}

template <typename DecodeFn>
uint64_t DecodeWholeList(const EncodedList& list, PostedWindow* out,
                         DecodeFn&& decode) {
  const char* p = list.bytes.data();
  const char* limit = p + list.bytes.size();
  uint64_t i = 0;
  while (i < list.count) {
    const uint64_t run = std::min<uint64_t>(list.run, list.count - i);
    uint64_t decoded = 0;
    p = decode(p, limit, run, out + i, &decoded);
    if (p == nullptr || decoded != run) return 0;
    i += run;
  }
  return i;
}

/// decode_block measures the calibrated dispatch (what queries run);
/// decode_scalar and decode_word pin each implementation so the nightly
/// report shows both sides of the runtime choice on that machine. Every
/// variant is verified bit-identical against the reference first.
void BenchDecode(bool quick, std::vector<KernelReport>* kernels) {
  const uint64_t count = quick ? 150000 : 1000000;
  // A quick decode pair takes about a millisecond, so 40 pairs stay cheap
  // while giving the paired median enough samples to settle.
  const int iters = quick ? 40 : 15;
  const EncodedList list = MakeEncodedList(count, 7);

  std::vector<PostedWindow> ref_out(count), out(count);
  if (DecodeWholeList(list, ref_out.data(), reference::DecodeWindowRun) !=
      count) {
    FailEquivalence("decode_block");
  }

  struct Variant {
    const char* name;
    WindowDecodeFn fn;
  };
  std::vector<Variant> variants = {{"decode_block", &DecodeWindowRun},
                                   {"decode_scalar", &DecodeWindowRunScalar}};
#if defined(NDSS_VARINT_WORD)
  if (WordWindowDecodeSupported()) {
    variants.push_back({"decode_word", &DecodeWindowRunWord});
  }
#endif
  for (const Variant& v : variants) {
    if (DecodeWholeList(list, out.data(), v.fn) != count || out != ref_out) {
      FailEquivalence(v.name);
    }
    kernels->push_back(TimePaired(
        v.name, count, iters,
        [&] { return DecodeWholeList(list, out.data(), v.fn); },
        [&] {
          return DecodeWholeList(list, out.data(), reference::DecodeWindowRun);
        }));
    PrintKernel(kernels->back());
  }
}

// ---- sorts ---------------------------------------------------------------

KernelReport BenchWindowSort(bool quick) {
  const size_t n = quick ? 150000 : 1000000;
  const int iters = quick ? 6 : 10;
  Rng rng(3);
  ZipfSampler zipf(50000, 1.0);
  std::vector<PostedWindow> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t l = static_cast<uint32_t>(rng.Uniform(1u << 20));
    input.push_back(PostedWindow{static_cast<uint32_t>(zipf.Sample(rng)), l,
                                 l + 16, l + 32});
  }
  const auto key = [](const PostedWindow& w) {
    return (static_cast<uint64_t>(w.text) << 32) | w.l;
  };

  std::vector<PostedWindow> fast_sorted = input, ref_sorted = input;
  RadixSortByKey(&fast_sorted, key);
  reference::SortWindows(&ref_sorted);
  if (fast_sorted != ref_sorted) FailEquivalence("window_sort");

  std::vector<PostedWindow> work, scratch;
  return TimePaired(
      "window_sort", n, iters,
      [&] {
        work = input;
        RadixSortByKey(&work, key, &scratch);
        return static_cast<uint64_t>(work.back().text);
      },
      [&] {
        work = input;
        reference::SortWindows(&work);
        return static_cast<uint64_t>(work.back().text);
      });
}

KernelReport BenchSpanSort(bool quick) {
  const size_t n = quick ? 150000 : 1000000;
  const int iters = quick ? 6 : 10;
  Rng rng(4);
  ZipfSampler zipf(50000, 1.0);
  std::vector<std::pair<uint64_t, uint32_t>> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = (static_cast<uint64_t>(zipf.Sample(rng)) << 32) |
                         rng.Uniform(1u << 20);
    input.push_back({key, static_cast<uint32_t>(i)});
  }
  const auto key_fn = [](const std::pair<uint64_t, uint32_t>& p) {
    return p.first;
  };

  std::vector<std::pair<uint64_t, uint32_t>> fast_sorted = input,
                                             ref_sorted = input;
  RadixSortByKey(&fast_sorted, key_fn);
  reference::SortByKey(&ref_sorted);
  if (fast_sorted != ref_sorted) FailEquivalence("span_sort");

  std::vector<std::pair<uint64_t, uint32_t>> work, scratch;
  return TimePaired(
      "span_sort", n, iters,
      [&] {
        work = input;
        RadixSortByKey(&work, key_fn, &scratch);
        return static_cast<uint64_t>(work.back().second);
      },
      [&] {
        work = input;
        reference::SortByKey(&work);
        return static_cast<uint64_t>(work.back().second);
      });
}

// ---- end-to-end ----------------------------------------------------------

struct EndToEnd {
  uint64_t queries = 0;
  double qps = 0;
  Percentiles latency;
  double mean_spans = 0;
};

EndToEnd BenchEndToEnd(bool quick) {
  const uint32_t num_texts = quick ? 300 : 1500;
  const uint32_t num_queries = quick ? 20 : 60;
  SyntheticCorpus sc = bench::MakeBenchCorpus(num_texts, 8000, 21);
  const auto queries = bench::MakeQueries(sc.corpus, num_queries, 64, 0.05,
                                          8000, 22);
  IndexBuildOptions build;
  build.k = 16;
  build.t = 25;
  auto searcher = Searcher::InMemory(sc.corpus, build);
  if (!searcher.ok()) {
    std::fprintf(stderr, "in-memory build failed: %s\n",
                 searcher.status().ToString().c_str());
    std::exit(1);
  }
  SearchOptions options;
  options.theta = 0.8;
  options.long_list_threshold = searcher->ListCountPercentile(0.10);

  EndToEnd e2e;
  e2e.queries = num_queries;
  std::vector<double> micros;
  micros.reserve(queries.size());
  Stopwatch total;
  for (const auto& query : queries) {
    Stopwatch watch;
    auto result = searcher->Search(query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    micros.push_back(watch.ElapsedMicros());
    e2e.mean_spans += static_cast<double>(result->spans.size());
  }
  const double total_seconds = total.ElapsedSeconds();
  e2e.qps = total_seconds > 0 ? queries.size() / total_seconds : 0;
  e2e.latency = ComputePercentiles(std::move(micros));
  e2e.mean_spans /= static_cast<double>(queries.size());
  return e2e;
}

int Run(int argc, char** argv) {
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_query_hot_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--quick] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "Query hot-path kernels vs reference oracles",
      "every kernel is verified bit-identical against src/query/reference/ "
      "before timing; a mismatch aborts with exit 1");
  std::printf("%-16s %10s %6s %12s %12s %12s %12s %10s\n", "kernel", "items",
              "iters", "fast p50us", "fast p95us", "ref p50us", "ref p95us",
              "speedup");

  std::vector<KernelReport> kernels;
  kernels.push_back(BenchIntervalSweep(quick));
  PrintKernel(kernels.back());
  kernels.push_back(BenchCollisionCount(quick));
  PrintKernel(kernels.back());
  BenchDecode(quick, &kernels);
  kernels.push_back(BenchWindowSort(quick));
  PrintKernel(kernels.back());
  kernels.push_back(BenchSpanSort(quick));
  PrintKernel(kernels.back());

  std::printf("\ndecode dispatch chose: %s\n", WindowDecodePathName());

  const EndToEnd e2e = BenchEndToEnd(quick);
  std::printf("end-to-end: %llu queries, %.1f QPS, p50 %.0f us, "
              "p95 %.0f us, %.2f spans/query\n",
              static_cast<unsigned long long>(e2e.queries), e2e.qps,
              e2e.latency.p50_us, e2e.latency.p95_us, e2e.mean_spans);

  if (json) {
    bench::JsonWriter writer;
    writer.BeginObject();
    writer.Field("bench", std::string("query_hot_path"));
    writer.Field("quick", quick);
    writer.Field("scale", bench::ScaleFactor());
    writer.Field("decode_path", std::string(WindowDecodePathName()));
    bench::WriteHost(&writer);
    writer.BeginArray("kernels");
    for (const KernelReport& r : kernels) {
      writer.BeginObject();
      writer.Field("name", r.name);
      writer.Field("items", r.items);
      writer.Field("iters", static_cast<uint64_t>(r.iters));
      writer.Field("fast_p50_us", r.fast.p50_us);
      writer.Field("fast_p95_us", r.fast.p95_us);
      writer.Field("ref_p50_us", r.ref.p50_us);
      writer.Field("ref_p95_us", r.ref.p95_us);
      writer.Field("speedup_p50", r.speedup());
      writer.EndObject();
    }
    writer.EndArray();
    writer.BeginObject("end_to_end");
    writer.Field("queries", e2e.queries);
    writer.Field("qps", e2e.qps);
    writer.Field("p50_us", e2e.latency.p50_us);
    writer.Field("p95_us", e2e.latency.p95_us);
    writer.Field("mean_spans", e2e.mean_spans);
    writer.EndObject();
    writer.EndObject();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(writer.str().data(), 1, writer.str().size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ndss

int main(int argc, char** argv) { return ndss::Run(argc, argv); }
