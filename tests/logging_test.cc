#include "common/logging.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "index/index_meta.h"

namespace ndss {
namespace {

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, SuppressedMessagesDoNotCrash) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  NDSS_LOG(kDebug) << "this should be filtered " << 42;
  NDSS_LOG(kInfo) << "and this " << 3.14;
  SetLogLevel(original);
  SUCCEED();
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  NDSS_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalseCondition) {
  EXPECT_DEATH({ NDSS_CHECK(false) << "boom"; }, "Check failed");
}

TEST(LoggingTest, SuppressedManipulatorFormats) {
  std::ostringstream zero;
  zero << internal::Suppressed{0};
  EXPECT_EQ(zero.str(), "");
  std::ostringstream three;
  three << internal::Suppressed{3};
  EXPECT_EQ(three.str(), "[3 similar suppressed] ");
}

TEST(LoggingTest, RateLimiterGatesAndCountsSuppressions) {
  internal::LogRateLimiter limiter;
  uint64_t suppressed = 99;
  ASSERT_TRUE(limiter.ShouldLog(0.05, &suppressed));
  EXPECT_EQ(suppressed, 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(limiter.ShouldLog(0.05, &suppressed));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  ASSERT_TRUE(limiter.ShouldLog(0.05, &suppressed));
  EXPECT_EQ(suppressed, 4u) << "rejected calls since the last accepted one";
  // The counter resets on every accepted call.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  ASSERT_TRUE(limiter.ShouldLog(0.05, &suppressed));
  EXPECT_EQ(suppressed, 0u);
}

TEST(LoggingTest, RateLimitedMacrosSurviveTightLoops) {
  // The macros expand to multiple statements with line-derived names; this
  // exercises both shapes (including two on adjacent lines) under a level
  // that discards the output, so the test only measures gating logic.
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  for (int i = 0; i < 1000; ++i) {
    NDSS_LOG_EVERY_N(kInfo, 100) << "sampled " << i;
    NDSS_LOG_EVERY_SECONDS(kInfo, 3600.0) << "rate limited " << i;
  }
  SetLogLevel(original);
  SUCCEED();
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch watch;
  const double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_NEAR(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3,
              watch.ElapsedSeconds() * 100);
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), second + 1.0);
}

TEST(IndexMetaTest, SaveLoadRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/ndss_meta_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  IndexMeta meta;
  meta.k = 12;
  meta.seed = 0xabcdef;
  meta.t = 37;
  meta.num_texts = 999;
  meta.total_tokens = 123456789ull;
  meta.zone_step = 32;
  meta.zone_threshold = 100;
  ASSERT_TRUE(meta.Save(dir).ok());
  auto loaded = IndexMeta::Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->k, 12u);
  EXPECT_EQ(loaded->seed, 0xabcdefull);
  EXPECT_EQ(loaded->t, 37u);
  EXPECT_EQ(loaded->num_texts, 999u);
  EXPECT_EQ(loaded->total_tokens, 123456789ull);
  EXPECT_EQ(loaded->zone_step, 32u);
  EXPECT_EQ(loaded->zone_threshold, 100u);
  std::filesystem::remove_all(dir);
}

TEST(IndexMetaTest, PathsAreDistinctPerFunction) {
  EXPECT_NE(IndexMeta::InvertedIndexPath("/x", 0),
            IndexMeta::InvertedIndexPath("/x", 1));
  EXPECT_EQ(IndexMeta::InvertedIndexPath("/x", 3), "/x/inverted.3.ndx");
}

TEST(IndexMetaTest, LoadFromMissingDirFails) {
  EXPECT_FALSE(IndexMeta::Load("/nonexistent_dir_xyz").ok());
}

}  // namespace
}  // namespace ndss
