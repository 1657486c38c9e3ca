// ndss_fsck: integrity checker for an index directory. Verifies the commit
// marker, meta checksum, and every inverted-index file: magics, the footer
// checksum (header ++ directory ++ zone CRCs) and the directory's tiling of
// the file (both at open), directory ordering, per-list window
// counts, (text, l) sort order within lists, per-list and zone-map CRC32C
// (exercised by --deep reads and zone probes), and the total window count
// against the footer. Optionally verifies a corpus file's per-text and
// footer checksums.
//
//   ndss_fsck --index=/data/idx [--deep] [--corpus=/data/corpus.ndc]
//             [--json]
//   ndss_fsck --wal=/data/set/WAL [--json]
//
// --wal checks an ingestion write-ahead log instead of (or in addition to)
// an index: every frame's CRC32C and seqno monotonicity, and reports a torn
// tail (bytes past the last valid frame) — the exact prefix WAL recovery
// would keep. A torn tail is reported as a problem but is survivable: the
// next Ingester::Open truncates it.
//
// Exit code is the number of problems found, capped at 100 (0 = clean), so
// scripts can both branch on failure and read a small problem count.

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "index/index_meta.h"
#include "index/inverted_index_reader.h"
#include "ingest/wal.h"
#include "text/corpus_file.h"
#include "tool_flags.h"

namespace {

/// Accumulates problems; prints them immediately in text mode, or holds
/// them for one JSON document in --json mode.
class Report {
 public:
  explicit Report(bool json) : json_(json) {}

  void Problem(const std::string& file, const std::string& message) {
    problems_.push_back({file, message});
    if (!json_) std::printf("  %s: %s\n", file.c_str(), message.c_str());
  }

  void Info(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    if (json_) return;
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
  }

  int Finish(const std::string& index_dir) const {
    if (json_) {
      std::printf("{\"index\":\"%s\",\"ok\":%s,\"num_problems\":%zu,"
                  "\"problems\":[",
                  JsonEscape(index_dir).c_str(),
                  problems_.empty() ? "true" : "false", problems_.size());
      for (size_t i = 0; i < problems_.size(); ++i) {
        std::printf("%s{\"file\":\"%s\",\"message\":\"%s\"}",
                    i == 0 ? "" : ",",
                    JsonEscape(problems_[i].file).c_str(),
                    JsonEscape(problems_[i].message).c_str());
      }
      std::printf("]}\n");
    } else {
      std::printf("%zu problem(s) found%s\n", problems_.size(),
                  problems_.empty() ? ": index is clean" : "");
    }
    const size_t capped = problems_.size() > 100 ? 100 : problems_.size();
    return static_cast<int>(capped);
  }

  size_t num_problems() const { return problems_.size(); }

 private:
  struct Entry {
    std::string file;
    std::string message;
  };

  static std::string JsonEscape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  bool json_;
  std::vector<Entry> problems_;
};

/// Checks one inverted-index file. Opening alone verifies the metadata
/// checksum; --deep additionally reads every list (verifying list CRCs) and
/// spot-checks zone probes (verifying zone CRCs).
void CheckFile(const std::string& path, bool deep, uint64_t* total_windows,
               Report* report) {
  auto reader = ndss::InvertedIndexReader::Open(path);
  if (!reader.ok()) {
    report->Problem(path, "open failed: " + reader.status().ToString());
    return;
  }
  uint64_t windows_in_directory = 0;
  ndss::Token previous_key = 0;
  bool first = true;
  for (const ndss::ListMeta& meta : reader->directory()) {
    if (!first && meta.key <= previous_key) {
      report->Problem(path, "directory keys not strictly increasing at " +
                                std::to_string(meta.key));
    }
    previous_key = meta.key;
    first = false;
    windows_in_directory += meta.count;
    if (!deep) continue;

    std::vector<ndss::PostedWindow> windows;
    ndss::Status status = reader->ReadList(meta, &windows);
    if (!status.ok()) {
      report->Problem(path, "list " + std::to_string(meta.key) +
                                " unreadable: " + status.ToString());
      continue;
    }
    if (windows.size() != meta.count) {
      report->Problem(path, "list " + std::to_string(meta.key) +
                                " count mismatch (" +
                                std::to_string(windows.size()) + " vs " +
                                std::to_string(meta.count) + ")");
    }
    for (size_t i = 0; i < windows.size(); ++i) {
      const ndss::PostedWindow& w = windows[i];
      if (!(w.l <= w.c && w.c <= w.r)) {
        report->Problem(path, "list " + std::to_string(meta.key) +
                                  " window " + std::to_string(i) +
                                  " malformed");
        break;
      }
      if (i > 0 && (w.text < windows[i - 1].text ||
                    (w.text == windows[i - 1].text &&
                     w.l < windows[i - 1].l))) {
        report->Problem(path, "list " + std::to_string(meta.key) +
                                  " not sorted by (text, l) at " +
                                  std::to_string(i));
        break;
      }
    }
    // Zone-map spot check: the probe path must reproduce the scan for the
    // first and last text in the list (and verifies the zone CRC).
    if (reader->zoned(meta) && !windows.empty()) {
      for (ndss::TextId text : {windows.front().text, windows.back().text}) {
        std::vector<ndss::PostedWindow> probed, expected;
        ndss::Status probe = reader->ReadWindowsForText(meta, text, &probed);
        if (!probe.ok()) {
          report->Problem(path, "list " + std::to_string(meta.key) +
                                    " zone probe failed for text " +
                                    std::to_string(text) + ": " +
                                    probe.ToString());
          continue;
        }
        for (const ndss::PostedWindow& w : windows) {
          if (w.text == text) expected.push_back(w);
        }
        if (probed != expected) {
          report->Problem(path, "list " + std::to_string(meta.key) +
                                    " zone probe mismatch for text " +
                                    std::to_string(text));
        }
      }
    }
  }
  if (windows_in_directory != reader->num_windows()) {
    report->Problem(path,
                    "footer window count " +
                        std::to_string(reader->num_windows()) +
                        " != directory sum " +
                        std::to_string(windows_in_directory));
  }
  *total_windows += reader->num_windows();
  report->Info("  %s: %zu lists, %llu windows\n", path.c_str(),
               reader->num_lists(),
               static_cast<unsigned long long>(reader->num_windows()));
}

/// Streams every text of a corpus file, which verifies the footer checksum
/// (at open) and each per-text CRC.
void CheckCorpus(const std::string& path, Report* report) {
  auto corpus = ndss::CorpusFileReader::Open(path);
  if (!corpus.ok()) {
    report->Problem(path, "open failed: " + corpus.status().ToString());
    return;
  }
  uint64_t texts = 0;
  uint64_t tokens = 0;
  for (;;) {
    auto batch = corpus->ReadBatch(16ull << 20);
    if (!batch.ok()) {
      report->Problem(path, "read failed at text " + std::to_string(texts) +
                                ": " + batch.status().ToString());
      return;
    }
    if (batch->empty()) break;
    texts += batch->num_texts();
    tokens += batch->total_tokens();
  }
  if (texts != corpus->num_texts() || tokens != corpus->total_tokens()) {
    report->Problem(path, "footer counts disagree with body (" +
                              std::to_string(texts) + " texts, " +
                              std::to_string(tokens) + " tokens read)");
  }
  report->Info("  %s: %llu texts, %llu tokens\n", path.c_str(),
               static_cast<unsigned long long>(texts),
               static_cast<unsigned long long>(tokens));
}

/// Scans a WAL: frame CRCs and seqno monotonicity are enforced by ScanWal
/// itself (an offending frame ends the valid prefix); fsck reports what the
/// scan kept and flags any torn tail.
void CheckWal(const std::string& path, Report* report) {
  if (!ndss::GetDefaultEnv()->FileExists(path)) {
    report->Problem(path, "WAL file does not exist");
    return;
  }
  auto scan = ndss::ScanWal(path);
  if (!scan.ok()) {
    report->Problem(path, "scan failed: " + scan.status().ToString());
    return;
  }
  if (scan->torn_bytes > 0) {
    report->Problem(path, "torn tail: " + std::to_string(scan->torn_bytes) +
                              " byte(s) past the last valid frame (" +
                              scan->torn_reason + "); recovery truncates at " +
                              std::to_string(scan->valid_bytes));
  }
  uint64_t tokens = 0;
  for (const ndss::WalFrame& frame : scan->frames) tokens += frame.tokens.size();
  report->Info("  %s: %zu frame(s), seqnos [%llu, %llu], %llu tokens, "
               "%llu/%llu valid bytes\n",
               path.c_str(), scan->frames.size(),
               static_cast<unsigned long long>(scan->min_seqno),
               static_cast<unsigned long long>(scan->max_seqno),
               static_cast<unsigned long long>(tokens),
               static_cast<unsigned long long>(scan->valid_bytes),
               static_cast<unsigned long long>(scan->file_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string index_dir = flags.GetString("index", "");
  const std::string wal_path = flags.GetString("wal", "");
  if (index_dir.empty() && wal_path.empty()) {
    ndss::tools::Die(
        "usage: ndss_fsck --index=DIR [--deep] [--corpus=FILE] [--json]\n"
        "       ndss_fsck --wal=FILE [--json]");
  }
  if (index_dir.empty()) {
    Report report(flags.GetBool("json", false));
    CheckWal(wal_path, &report);
    return report.Finish(wal_path);
  }
  const bool deep = flags.GetBool("deep", false);
  const bool json = flags.GetBool("json", false);
  const std::string corpus_path = flags.GetString("corpus", "");

  Report report(json);

  ndss::Status marker = ndss::CheckIndexCommitMarker(index_dir);
  if (!marker.ok()) {
    report.Problem(ndss::IndexCommitMarkerPath(index_dir),
                   marker.ToString());
  }

  auto meta = ndss::IndexMeta::Load(index_dir);
  if (!meta.ok()) {
    report.Problem(index_dir + "/index.meta", meta.status().ToString());
    return report.Finish(index_dir);
  }
  report.Info("meta: k=%u t=%u sketch=%s seed=%llx texts=%llu tokens=%llu\n",
              meta->k, meta->t, ndss::SketchSchemeName(meta->sketch),
              static_cast<unsigned long long>(meta->seed),
              static_cast<unsigned long long>(meta->num_texts),
              static_cast<unsigned long long>(meta->total_tokens));

  uint64_t total_windows = 0;
  for (uint32_t func = 0; func < meta->k; ++func) {
    CheckFile(ndss::IndexMeta::InvertedIndexPath(index_dir, func), deep,
              &total_windows, &report);
  }
  report.Info("%u files, %llu windows total\n", meta->k,
              static_cast<unsigned long long>(total_windows));

  if (!corpus_path.empty()) CheckCorpus(corpus_path, &report);
  if (!wal_path.empty()) CheckWal(wal_path, &report);

  return report.Finish(index_dir);
}
