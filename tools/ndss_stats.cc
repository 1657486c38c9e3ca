// ndss_stats: prints posting-list statistics of a built index — the list
// length distribution that drives prefix filtering (Zipf's law makes a few
// lists enormous, Section 3.5) — and optionally a compact-window width
// histogram (--widths, reads every list of hash function 0).
//
//   ndss_stats --index=/data/idx [--widths] [--json]
//
// Both modes report how the inverted files' bytes split between posting
// lists, zone maps and the list directory, and the directory's share of
// the file bytes (header and footer are the remaining 64 bytes a file).
//
// --json emits the summary (build parameters, list/window totals, the byte
// split, the percentile distribution) as a single machine-readable object,
// like ndss_fsck --json; --widths is ignored in that mode. In --json mode
// failures are reported as {"ok": false, "error": ...} with exit 1 instead
// of a bare stderr line, so monitoring that shells out to this tool can
// keep a single JSON parser on the happy and sad paths alike.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "tool_flags.h"

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Reports `message` in whichever shape the caller asked for and exits 1.
[[noreturn]] void Fail(bool json, const std::string& message) {
  if (!json) ndss::tools::Die(message);
  std::printf("{\"ok\": false, \"error\": \"%s\"}\n",
              JsonEscape(message).c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const bool json = flags.GetBool("json", false);
  const std::string index_dir = flags.GetString("index", "");
  if (index_dir.empty()) {
    Fail(json, "usage: ndss_stats --index=DIR");
  }
  auto meta = ndss::IndexMeta::Load(index_dir);
  if (!meta.ok()) Fail(json, meta.status().ToString());

  std::vector<uint64_t> counts;
  uint64_t total_windows = 0;
  uint64_t total_bytes = 0;
  uint64_t zone_lists = 0;
  uint64_t file_bytes = 0;
  uint64_t posting_bytes = 0;
  uint64_t zone_bytes = 0;
  uint64_t directory_bytes = 0;
  for (uint32_t func = 0; func < meta->k; ++func) {
    const std::string path =
        ndss::IndexMeta::InvertedIndexPath(index_dir, func);
    auto reader = ndss::InvertedIndexReader::Open(path);
    if (!reader.ok()) Fail(json, reader.status().ToString());
    for (const ndss::ListMeta& list : reader->directory()) {
      counts.push_back(list.count);
      total_bytes += list.list_bytes;
      if (reader->zoned(list)) ++zone_lists;
    }
    total_windows += reader->num_windows();
    file_bytes += reader->file_bytes();
    posting_bytes += reader->posting_bytes();
    zone_bytes += reader->zone_bytes();
    directory_bytes += reader->directory_bytes();
  }
  std::sort(counts.begin(), counts.end(), std::greater<uint64_t>());
  const double directory_share =
      file_bytes == 0 ? 0.0
                      : static_cast<double>(directory_bytes) / file_bytes;

  if (json) {
    const std::string escaped_dir = JsonEscape(index_dir);
    std::printf("{\n  \"ok\": true,\n"
                "  \"index\": \"%s\",\n  \"k\": %u,\n  \"seed\": %llu,\n"
                "  \"t\": %u,\n  \"sketch\": \"%s\",\n"
                "  \"num_texts\": %llu,\n"
                "  \"total_tokens\": %llu,\n  \"lists\": %zu,\n"
                "  \"windows\": %llu,\n  \"list_bytes\": %llu,\n"
                "  \"zone_lists\": %llu,\n  \"file_bytes\": %llu,\n"
                "  \"posting_bytes\": %llu,\n  \"zone_bytes\": %llu,\n"
                "  \"directory_bytes\": %llu,\n"
                "  \"directory_share\": %.4f,\n",
                escaped_dir.c_str(), meta->k,
                static_cast<unsigned long long>(meta->seed), meta->t,
                ndss::SketchSchemeName(meta->sketch),
                static_cast<unsigned long long>(meta->num_texts),
                static_cast<unsigned long long>(meta->total_tokens),
                counts.size(),
                static_cast<unsigned long long>(total_windows),
                static_cast<unsigned long long>(total_bytes),
                static_cast<unsigned long long>(zone_lists),
                static_cast<unsigned long long>(file_bytes),
                static_cast<unsigned long long>(posting_bytes),
                static_cast<unsigned long long>(zone_bytes),
                static_cast<unsigned long long>(directory_bytes),
                directory_share);
    std::printf("  \"list_length_percentiles\": {");
    const double json_n = static_cast<double>(counts.size());
    const double pcts[] = {0.0, 0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 0.90};
    for (size_t i = 0; i < 8; ++i) {
      const uint64_t value =
          counts.empty()
              ? 0
              : counts[std::min<size_t>(counts.size() - 1,
                                        static_cast<size_t>(pcts[i] * json_n))];
      std::printf("%s\"%.1f\": %llu", i == 0 ? "" : ", ", pcts[i] * 100,
                  static_cast<unsigned long long>(value));
    }
    std::printf("}\n}\n");
    return 0;
  }

  if (counts.empty()) {
    std::printf("index is empty\n");
    return 0;
  }

  std::printf("k=%u t=%u sketch=%s  lists=%zu  windows=%llu  "
              "list bytes=%.2f MB  zone-mapped lists=%llu\n",
              meta->k, meta->t, ndss::SketchSchemeName(meta->sketch),
              counts.size(),
              static_cast<unsigned long long>(total_windows),
              total_bytes / 1e6,
              static_cast<unsigned long long>(zone_lists));
  std::printf("corpus: %llu texts, %llu tokens  (index/corpus byte ratio "
              "%.3f)\n",
              static_cast<unsigned long long>(meta->num_texts),
              static_cast<unsigned long long>(meta->total_tokens),
              total_bytes / (4.0 * meta->total_tokens));
  std::printf("files: %.2f MB = postings %.2f MB + zones %.2f MB + "
              "directory %.2f MB (%.1f%% of file bytes) + header/footer\n",
              file_bytes / 1e6, posting_bytes / 1e6, zone_bytes / 1e6,
              directory_bytes / 1e6, 100.0 * directory_share);

  std::printf("\nlist length distribution (Zipf skew):\n");
  std::printf("  %-12s %12s\n", "percentile", "windows");
  const double n = static_cast<double>(counts.size());
  for (double pct : {0.0, 0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 0.90}) {
    const size_t idx = std::min<size_t>(counts.size() - 1,
                                        static_cast<size_t>(pct * n));
    std::printf("  top %-7.1f%% %12llu\n", pct * 100,
                static_cast<unsigned long long>(counts[idx]));
  }
  // Share of windows in the top-x% longest lists.
  uint64_t cumulative = 0;
  size_t next_report = 0;
  const double marks[] = {0.01, 0.05, 0.10, 0.20};
  std::printf("\nwindow mass in the longest lists:\n");
  for (size_t i = 0; i < counts.size() && next_report < 4; ++i) {
    cumulative += counts[i];
    while (next_report < 4 &&
           i + 1 >= static_cast<size_t>(marks[next_report] * n)) {
      std::printf("  top %4.0f%% of lists hold %5.1f%% of windows\n",
                  marks[next_report] * 100,
                  100.0 * cumulative / total_windows);
      ++next_report;
    }
  }

  if (flags.GetBool("widths", false)) {
    // Compact-window width histogram over hash function 0 (widths start at
    // t; the expected width distribution is heavy-tailed because windows
    // are Cartesian-tree subtree ranges).
    auto reader = ndss::InvertedIndexReader::Open(
        ndss::IndexMeta::InvertedIndexPath(index_dir, 0));
    if (!reader.ok()) ndss::tools::Die(reader.status().ToString());
    std::vector<uint64_t> histogram;  // log2 buckets of width/t
    uint64_t windows = 0;
    double width_sum = 0;
    std::vector<ndss::PostedWindow> list;
    for (const ndss::ListMeta& list_meta : reader->directory()) {
      list.clear();
      if (!reader->ReadList(list_meta, &list).ok()) continue;
      for (const ndss::PostedWindow& w : list) {
        const uint64_t width = w.r - w.l + 1;
        width_sum += static_cast<double>(width);
        ++windows;
        size_t bucket = 0;
        for (uint64_t x = width / std::max<uint32_t>(1u, meta->t); x > 1;
             x >>= 1) {
          ++bucket;
        }
        if (histogram.size() <= bucket) histogram.resize(bucket + 1);
        ++histogram[bucket];
      }
    }
    std::printf("\nwindow width histogram (function 0, %llu windows, mean "
                "width %.1f):\n",
                static_cast<unsigned long long>(windows),
                windows == 0 ? 0.0 : width_sum / windows);
    for (size_t bucket = 0; bucket < histogram.size(); ++bucket) {
      std::printf("  width in [%llu*t, %llu*t): %5.1f%%\n",
                  1ull << bucket, 2ull << bucket,
                  100.0 * histogram[bucket] / windows);
    }
  }
  return 0;
}
