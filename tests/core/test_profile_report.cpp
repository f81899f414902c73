#include "core/profile_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace cesm::core {
namespace {

class ProfileReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }

  static void record_sample_activity() {
    trace::set_enabled(true);
    {
      trace::Span suite("suite.variable");
      { trace::Span enc("encode:fpzip-24"); }
      { trace::Span enc("encode:fpzip-24"); }
      { trace::Span dec("decode:fpzip-24"); }
    }
    trace::add(trace::Counter::kCodecBytesOut, 4096);
    trace::set_enabled(false);
  }
};

TEST_F(ProfileReportTest, JsonCarriesSchemaTreeAggregatesAndCounters) {
  record_sample_activity();
  const std::string json = profile_json();
  EXPECT_NE(json.find("\"schema\": \"cesmcomp-profile-1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"suite.variable\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"encode:fpzip-24\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);  // two encodes merged
  EXPECT_NE(json.find("\"codec.bytes_out\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\":"), std::string::npos);
  EXPECT_NE(json.find("\"total_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_s\":"), std::string::npos);
}

TEST_F(ProfileReportTest, JsonBracesAndBracketsBalance) {
  record_sample_activity();
  const std::string json = profile_json();
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ProfileReportTest, EscapesHostileLabels) {
  trace::set_enabled(true);
  { trace::Span s("bad\"label\\with\nnoise"); }
  trace::set_enabled(false);
  const std::string json = profile_json();
  EXPECT_NE(json.find("bad\\\"label\\\\with\\nnoise"), std::string::npos);
}

TEST_F(ProfileReportTest, TextTreeIndentsChildrenAndListsCounters) {
  record_sample_activity();
  const std::string text = profile_text();
  EXPECT_NE(text.find("profile"), std::string::npos);
  EXPECT_NE(text.find("  suite.variable"), std::string::npos);
  EXPECT_NE(text.find("    encode:fpzip-24"), std::string::npos);
  EXPECT_NE(text.find("count=2"), std::string::npos);
  EXPECT_NE(text.find("codec.bytes_out = 4096"), std::string::npos);
}

TEST_F(ProfileReportTest, WritesJsonFile) {
  record_sample_activity();
  const std::string path = ::testing::TempDir() + "cesm_profile_test.json";
  write_profile_json(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), profile_json());
  std::remove(path.c_str());
}

TEST_F(ProfileReportTest, UnwritablePathThrowsIoError) {
  EXPECT_THROW(write_profile_json("/nonexistent-dir/none/profile.json"), IoError);
}

}  // namespace
}  // namespace cesm::core
