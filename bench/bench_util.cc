#include "bench_util.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/stopwatch.h"

namespace ndss {
namespace bench {

double ScaleFactor() {
  static const double scale = [] {
    const char* env = std::getenv("NDSS_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::atof(env);
    return value > 0 ? value : 1.0;
  }();
  return scale;
}

uint32_t Scaled(uint32_t base) {
  const double scaled = base * ScaleFactor();
  return scaled < 1 ? 1u : static_cast<uint32_t>(scaled);
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = "/tmp/ndss_bench/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SyntheticCorpus MakeBenchCorpus(uint32_t num_texts, uint32_t vocab_size,
                                uint64_t seed) {
  SyntheticCorpusOptions options;
  options.num_texts = num_texts;
  options.min_text_length = 100;
  options.max_text_length = 1000;
  options.vocab_size = vocab_size;
  options.zipf_exponent = 1.0;
  options.plant_rate = 0.2;
  options.min_plant_length = 50;
  options.max_plant_length = 200;
  options.plant_noise = 0.05;
  options.seed = seed;
  return GenerateSyntheticCorpus(options);
}

std::vector<std::vector<Token>> MakeQueries(const Corpus& corpus,
                                            uint32_t count, uint32_t length,
                                            double noise, uint32_t vocab_size,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Token>> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    const TextId id = static_cast<TextId>(rng.Uniform(corpus.num_texts()));
    const auto text = corpus.text(id);
    if (text.size() < length) continue;
    const uint32_t begin =
        static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
    queries.push_back(
        PerturbSequence(text, begin, length, noise, vocab_size, rng));
  }
  return queries;
}

QueryRunResult RunQueries(Searcher& searcher,
                          const std::vector<std::vector<Token>>& queries,
                          const SearchOptions& options) {
  QueryRunResult result;
  if (queries.empty()) return result;
  for (const auto& query : queries) {
    Stopwatch watch;
    auto search = searcher.Search(query, options);
    const double elapsed = watch.ElapsedSeconds();
    if (!search.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   search.status().ToString().c_str());
      std::exit(1);
    }
    result.mean_latency += elapsed;
    result.mean_io_seconds += search->stats.io_seconds;
    result.mean_cpu_seconds += search->stats.cpu_seconds;
    result.mean_io_bytes += static_cast<double>(search->stats.io_bytes);
    result.mean_spans += static_cast<double>(search->spans.size());
  }
  const double n = static_cast<double>(queries.size());
  result.mean_latency /= n;
  result.mean_io_seconds /= n;
  result.mean_cpu_seconds /= n;
  result.mean_io_bytes /= n;
  result.mean_spans /= n;
  return result;
}

void JsonWriter::Prefix(const std::string& key) {
  if (!has_sibling_.empty()) {
    if (has_sibling_.back()) out_ += ",";
    out_ += "\n";
    out_.append(2 * has_sibling_.size(), ' ');
    has_sibling_.back() = true;
  }
  if (!key.empty()) {
    Escaped(key);
    out_ += ": ";
  }
}

void JsonWriter::Escaped(const std::string& value) {
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

void JsonWriter::BeginObject(const std::string& key) {
  Prefix(key);
  out_ += "{";
  has_sibling_.push_back(false);
}

void JsonWriter::EndObject() {
  const bool had_fields = has_sibling_.back();
  has_sibling_.pop_back();
  if (had_fields) {
    out_ += "\n";
    out_.append(2 * has_sibling_.size(), ' ');
  }
  out_ += "}";
  if (has_sibling_.empty()) out_ += "\n";
}

void JsonWriter::BeginArray(const std::string& key) {
  Prefix(key);
  out_ += "[";
  has_sibling_.push_back(false);
}

void JsonWriter::EndArray() {
  const bool had_fields = has_sibling_.back();
  has_sibling_.pop_back();
  if (had_fields) {
    out_ += "\n";
    out_.append(2 * has_sibling_.size(), ' ');
  }
  out_ += "]";
  if (has_sibling_.empty()) out_ += "\n";
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  Prefix(key);
  Escaped(value);
}

void JsonWriter::Field(const std::string& key, double value) {
  Prefix(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonWriter::Field(const std::string& key, uint64_t value) {
  Prefix(key);
  out_ += std::to_string(value);
}

void JsonWriter::Field(const std::string& key, bool value) {
  Prefix(key);
  out_ += value ? "true" : "false";
}

void PrintHeader(const std::string& experiment, const std::string& note) {
  std::printf("\n================================================="
              "=============================\n");
  std::printf("%s\n", experiment.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("scale factor: %.2f (set NDSS_BENCH_SCALE to change)\n",
              ScaleFactor());
  std::printf("---------------------------------------------------"
              "---------------------------\n");
}

void WriteHost(JsonWriter* writer) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      cpu_model = line.substr(colon + 2);
    }
    break;
  }
  writer->BeginObject("host");
  writer->Field("cpu_model", cpu_model);
  // What nproc prints: the CPUs this process may run on.
  uint64_t nproc = std::thread::hardware_concurrency();
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) nproc = CPU_COUNT(&cpus);
  writer->Field("nproc", nproc);
#if defined(__clang__)
  writer->Field("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  writer->Field("compiler", std::string("gcc ") + __VERSION__);
#else
  writer->Field("compiler", std::string("unknown"));
#endif
  writer->EndObject();
}

}  // namespace bench
}  // namespace ndss
