// Smoke test over the real ndss_* tool binaries (paths injected by CMake
// via NDSS_TOOLS_BIN_DIR): the corpusgen -> build -> shard -> query
// pipeline end to end, the serve + load_test pair over a live socket,
// ingestion through ndss_serve into a C-MinHash set, and the regression
// suite for the silent CLI-parsing bugs — every malformed flag value must
// exit 1 (usage error), never run with a silently-zero value.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/json.h"

namespace ndss {
namespace {

#ifndef NDSS_TOOLS_BIN_DIR
#error "NDSS_TOOLS_BIN_DIR must be defined by the build"
#endif

std::string Tool(const std::string& name) {
  return std::string(NDSS_TOOLS_BIN_DIR) + "/" + name;
}

/// Runs `command` through the shell with stdout/stderr captured to a log
/// (printed on unexpected exit codes by the assertions below); returns the
/// tool's exit code, or -1 if it died on a signal.
int RunCommand(const std::string& command, const std::string& log) {
  const int raw = std::system((command + " >" + log + " 2>&1").c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

std::string ReadLog(const std::string& log) {
  std::ifstream in(log);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class ToolsSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ndss_tools_smoke";
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(std::filesystem::create_directories(dir_));
    log_ = dir_ + "/log";
  }
  void TearDown() override {
    StopServe();
    std::filesystem::remove_all(dir_);
  }

  /// Asserts `command` exits with `expected`, printing the tool log if not.
  void ExpectExit(int expected, const std::string& command) {
    const int code = RunCommand(command, log_);
    EXPECT_EQ(code, expected) << command << "\n" << ReadLog(log_);
  }

  /// Starts ndss_serve in the background with `flags` on an ephemeral port
  /// and returns the port, or "" if the server never wrote it. TearDown
  /// stops the server.
  std::string StartServe(const std::string& flags) {
    const std::string port_file = dir_ + "/port";
    const std::string pid_file = dir_ + "/pid";
    if (std::system((Tool("ndss_serve") + " " + flags + " --port=0" +
                     " --port-file=" + port_file + " --serve-seconds=60 >" +
                     dir_ + "/serve.log 2>&1 & echo $! > " + pid_file)
                        .c_str()) != 0) {
      return "";
    }
    pid_ = ReadLog(pid_file);
    if (!pid_.empty() && pid_.back() == '\n') pid_.pop_back();
    std::string port;
    for (int i = 0; i < 200 && port.empty(); ++i) {
      std::ifstream in(port_file);
      std::getline(in, port);
      if (port.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    return port;
  }

  void StopServe() {
    if (pid_.empty()) return;
    (void)std::system(("kill " + pid_ + " 2>/dev/null").c_str());
    pid_.clear();
  }

  std::string dir_;
  std::string log_;
  std::string pid_;
};

TEST_F(ToolsSmokeTest, PipelineAndServeEndToEnd) {
  const std::string c1 = dir_ + "/c1.crp";
  const std::string c2 = dir_ + "/c2.crp";
  ExpectExit(0, Tool("ndss_corpusgen") + " --out=" + c1 +
                    " --texts=40 --min-len=50 --max-len=120 --vocab=300"
                    " --seed=1");
  ExpectExit(0, Tool("ndss_corpusgen") + " --out=" + c2 +
                    " --texts=40 --min-len=50 --max-len=120 --vocab=300"
                    " --seed=2");
  ExpectExit(0, Tool("ndss_build") + " --corpus=" + c1 + " --index=" + dir_ +
                    "/s1 --k=4 --t=6");
  ExpectExit(0, Tool("ndss_build") + " --corpus=" + c2 + " --index=" + dir_ +
                    "/s2 --k=4 --t=6");
  ExpectExit(0, Tool("ndss_shard") + " create --set=" + dir_ + "/set " +
                    dir_ + "/s1 " + dir_ + "/s2");
  ExpectExit(0, Tool("ndss_query") + " --index=" + dir_ +
                    "/s1 --tokens=1,2,3,4,5,6,7,8");
  ExpectExit(0, Tool("ndss_query") + " --index=" + dir_ + "/s1 --corpus=" +
                    c1 + " --random=3 --len=24");

  // Serve the set on an ephemeral port and drive it with the load-test
  // client, equivalence gate on: answers over HTTP must be bit-identical
  // to the direct ShardedSearcher.
  const std::string port = StartServe("--set=" + dir_ + "/set --quiet");
  ASSERT_FALSE(port.empty()) << ReadLog(dir_ + "/serve.log");

  ExpectExit(0, Tool("ndss_load_test") + " --port=" + port + " --corpus=" +
                    c1 + " --verify-set=" + dir_ +
                    "/set --requests=20 --concurrency=2 --queries=6"
                    " --len=24 --json");
}

TEST_F(ToolsSmokeTest, SketchFlagSelectsSchemeEndToEnd) {
  const std::string corpus = dir_ + "/c.crp";
  ExpectExit(0, Tool("ndss_corpusgen") + " --out=" + corpus +
                    " --texts=40 --min-len=50 --max-len=120 --vocab=300"
                    " --seed=7");
  ExpectExit(0, Tool("ndss_build") + " --corpus=" + corpus + " --index=" +
                    dir_ + "/cm --k=4 --t=6 --sketch=cminhash");
  ExpectExit(0, Tool("ndss_query") + " --index=" + dir_ +
                    "/cm --tokens=1,2,3,4,5,6,7,8");
  EXPECT_NE(ReadLog(log_).find("sketch=cminhash"), std::string::npos)
      << ReadLog(log_);

  // Scheme identity must survive the on-disk round trip into ndss_stats.
  ExpectExit(0, Tool("ndss_stats") + " --index=" + dir_ + "/cm --json");
  EXPECT_NE(ReadLog(log_).find("\"sketch\": \"cminhash\""), std::string::npos)
      << ReadLog(log_);

  // The byte split accounts for every byte of the k inverted files: lists,
  // zone maps, directory, plus a 24-byte header and 40-byte footer each.
  auto stats = net::ParseJson(ReadLog(log_));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n"
                          << ReadLog(log_);
  const auto field = [&](const char* name) {
    const net::JsonValue* value = stats->Find(name);
    EXPECT_TRUE(value != nullptr && value->is_number()) << name;
    return value != nullptr && value->is_number() ? value->number() : -1.0;
  };
  double inverted_file_bytes = 0;
  for (int func = 0; func < 4; ++func) {
    inverted_file_bytes += static_cast<double>(std::filesystem::file_size(
        dir_ + "/cm/inverted." + std::to_string(func) + ".ndx"));
  }
  EXPECT_EQ(field("file_bytes"), inverted_file_bytes);
  EXPECT_GT(field("posting_bytes"), 0);
  EXPECT_EQ(field("posting_bytes"), field("list_bytes"));
  EXPECT_GE(field("zone_bytes"), 0);
  EXPECT_GT(field("directory_bytes"), 0);
  EXPECT_EQ(field("posting_bytes") + field("zone_bytes") +
                field("directory_bytes") + 4 * 64,
            field("file_bytes"));
  EXPECT_NEAR(field("directory_share"),
              field("directory_bytes") / field("file_bytes"), 1e-4);

  // An unknown scheme name must be a loud usage error, not a default.
  ExpectExit(1, Tool("ndss_build") + " --corpus=" + corpus + " --index=" +
                    dir_ + "/bad --k=4 --t=6 --sketch=simhash");
  EXPECT_NE(ReadLog(log_).find("sketch"), std::string::npos) << ReadLog(log_);
}

TEST_F(ToolsSmokeTest, ServeIngestsIntoCMinHashSet) {
  // ndss_serve --ingest must open the write path with the set's own sketch
  // scheme; the ingester refuses options that disagree with the set.
  const std::string set = dir_ + "/stream";
  ExpectExit(0, Tool("ndss_ingest") + " --create --set=" + set +
                    " --k=4 --t=6 --sketch=cminhash");
  const std::string port = StartServe("--set=" + set + " --ingest");
  ASSERT_FALSE(port.empty()) << ReadLog(dir_ + "/serve.log");

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1",
                             static_cast<uint16_t>(std::stoi(port)))
                  .ok());
  int health = 0;
  for (int i = 0; i < 200 && health != 200; ++i) {
    auto response = client.Get("/v1/healthz");
    ASSERT_TRUE(response.ok()) << ReadLog(dir_ + "/serve.log");
    health = response->status;
    if (health != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_EQ(health, 200) << ReadLog(dir_ + "/serve.log");

  std::string tokens;
  for (int i = 0; i < 40; ++i) {
    tokens += (i > 0 ? "," : "") + std::to_string(1000 + 7 * i);
  }
  auto ingested =
      client.Post("/v1/ingest", "{\"documents\": [[" + tokens + "]]}");
  ASSERT_TRUE(ingested.ok());
  ASSERT_EQ(ingested->status, 200) << ingested->body;

  auto searched = client.Post("/v1/search",
                              "{\"tokens\": [" + tokens + "], \"theta\": 0.8}");
  ASSERT_TRUE(searched.ok());
  ASSERT_EQ(searched->status, 200) << searched->body;
  auto body = net::ParseJson(searched->body);
  ASSERT_TRUE(body.ok()) << searched->body;
  const net::JsonValue* spans = body->Find("spans");
  ASSERT_NE(spans, nullptr) << searched->body;
  EXPECT_EQ(spans->array().size(), 1u) << searched->body;
}

TEST_F(ToolsSmokeTest, MalformedTokenListExitsWithUsageError) {
  const std::string corpus = dir_ + "/c.crp";
  ASSERT_EQ(RunCommand(Tool("ndss_corpusgen") + " --out=" + corpus +
                    " --texts=20 --min-len=40 --max-len=80 --vocab=200",
                log_),
            0);
  ASSERT_EQ(RunCommand(Tool("ndss_build") + " --corpus=" + corpus + " --index=" +
                    dir_ + "/idx --k=4 --t=6",
                log_),
            0);
  // "12,abc,34" used to strtoul the bad entry to 0 and silently query
  // token 0; it must be a loud usage error now.
  ExpectExit(1, Tool("ndss_query") + " --index=" + dir_ +
                    "/idx --tokens=12,abc,34");
  EXPECT_NE(ReadLog(log_).find("malformed token"), std::string::npos);
  ExpectExit(1,
             Tool("ndss_query") + " --index=" + dir_ + "/idx --tokens=1,,2");
  ExpectExit(1,
             Tool("ndss_query") + " --index=" + dir_ + "/idx --tokens=-1");
}

TEST_F(ToolsSmokeTest, MalformedFlagValuesExitWithUsageError) {
  const std::string corpus = dir_ + "/c.crp";
  ASSERT_EQ(RunCommand(Tool("ndss_corpusgen") + " --out=" + corpus +
                    " --texts=20 --min-len=40 --max-len=80 --vocab=200",
                log_),
            0);
  ASSERT_EQ(RunCommand(Tool("ndss_build") + " --corpus=" + corpus + " --index=" +
                    dir_ + "/idx --k=4 --t=6",
                log_),
            0);
  // None of these may run a search: a bad value must die in flag parsing,
  // not query with deadline 0 (infinite) / theta 0.8-truncated.
  ExpectExit(1, Tool("ndss_query") + " --index=" + dir_ +
                    "/idx --tokens=1,2 --deadline-ms=abc");
  EXPECT_NE(ReadLog(log_).find("malformed number"), std::string::npos);
  // Negative limits, and limits whose scaled value does not fit their
  // integer type, used to convert with undefined behaviour. 1e13 ms fits
  // int64 microseconds but would overflow when added to the clock.
  for (const std::string limit :
       {"--deadline-ms=1e300", "--deadline-ms=1e13", "--deadline-ms=-1",
        "--batch-deadline-ms=1e300", "--batch-deadline-ms=-0.5",
        "--query-memory-mb=1e300", "--query-memory-mb=-5"}) {
    ExpectExit(1, Tool("ndss_query") + " --index=" + dir_ +
                      "/idx --tokens=1,2 " + limit);
    EXPECT_NE(ReadLog(log_).find("must be in [0, "), std::string::npos)
        << limit << ": " << ReadLog(log_);
  }
  ExpectExit(1, Tool("ndss_query") + " --index=" + dir_ +
                    "/idx --tokens=1,2 --theta=0.8x");
  EXPECT_NE(ReadLog(log_).find("malformed number"), std::string::npos);
  ExpectExit(1, Tool("ndss_corpusgen") + " --out=" + dir_ +
                    "/x.crp --texts=10x");
  ExpectExit(1, Tool("ndss_build") + " --corpus=" + dir_ + "/x --index=" +
                    dir_ + "/y --compress=YES");
  EXPECT_NE(ReadLog(log_).find("expected true/false/1/0"),
            std::string::npos);
  ExpectExit(1, Tool("ndss_serve") + " --set=" + dir_ +
                    "/nonexistent --max-inflight=many");
  ExpectExit(1, Tool("ndss_load_test") + " --port=1");  // no server: exit 1
}

}  // namespace
}  // namespace ndss
