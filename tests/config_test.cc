// The `key = value` config parser behind the apps/ CLI layer: parse shapes,
// typed getters, the typo guard (CheckAllKeysUsed), and file round-trips;
// plus the bounds ParseCommonFlags puts on --threads.

#include "experiments/config.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/thread_pool.h"

namespace oasis {
namespace experiments {
namespace {

TEST(ConfigMapTest, ParsesKeysValuesCommentsAndBlanks) {
  auto config = ConfigMap::Parse(
                    "# full-line comment\n"
                    "scenario = stripe-f90\n"
                    "\n"
                    "budget=2000   # trailing comment\n"
                    "  repeats  =  15  \n")
                    .ValueOrDie();
  EXPECT_TRUE(config.Has("scenario"));
  EXPECT_EQ(config.GetString("scenario").ValueOrDie(), "stripe-f90");
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 2000);
  EXPECT_EQ(config.GetInt64("repeats").ValueOrDie(), 15);
  EXPECT_EQ(config.Keys().size(), 3u);
}

TEST(ConfigMapTest, ValuesKeepInternalWhitespace) {
  auto config =
      ConfigMap::Parse("methods = passive, oasis, is\n").ValueOrDie();
  EXPECT_EQ(config.GetString("methods").ValueOrDie(), "passive, oasis, is");
  const std::vector<std::string> list = config.GetStringList("methods");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "passive");
  EXPECT_EQ(list[1], "oasis");
  EXPECT_EQ(list[2], "is");
}

TEST(ConfigMapTest, MalformedLinesFail) {
  EXPECT_FALSE(ConfigMap::Parse("no equals sign here\n").ok());
  EXPECT_FALSE(ConfigMap::Parse("= value without key\n").ok());
}

TEST(ConfigMapTest, DuplicateKeyIsAnErrorNotAnOverride) {
  const auto result = ConfigMap::Parse("budget = 1\nbudget = 2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
}

TEST(ConfigMapTest, TypedGettersRejectGarbage) {
  auto config = ConfigMap::Parse(
                    "n = 12x\n"
                    "x = abc\n"
                    "b = maybe\n")
                    .ValueOrDie();
  EXPECT_FALSE(config.GetInt64("n").ok());
  EXPECT_FALSE(config.GetDouble("x").ok());
  EXPECT_FALSE(config.GetBool("b").ok());
}

TEST(ConfigMapTest, TypedGettersWithDefaults) {
  auto config = ConfigMap::Parse("present = 7\n").ValueOrDie();
  EXPECT_EQ(config.GetInt64Or("present", 1).ValueOrDie(), 7);
  EXPECT_EQ(config.GetInt64Or("absent", 42).ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(config.GetDoubleOr("absent", 0.5).ValueOrDie(), 0.5);
  EXPECT_TRUE(config.GetBoolOr("absent", true).ValueOrDie());
  EXPECT_EQ(config.GetStringOr("absent", "fallback"), "fallback");
  // A present key with a bad value still fails even through the Or variant.
  auto bad = ConfigMap::Parse("n = oops\n").ValueOrDie();
  EXPECT_FALSE(bad.GetInt64Or("n", 3).ok());
}

TEST(ConfigMapTest, IntGetterRefusesValuesOutsideIntInsteadOfNarrowing) {
  auto config = ConfigMap::Parse(
                    "wraps = 4294967297\n"
                    "big = 2147483648\n"
                    "small = -2147483649\n"
                    "max = 2147483647\n")
                    .ValueOrDie();
  // 4294967297 narrowed through static_cast<int> would read as 1.
  for (const char* key : {"wraps", "big", "small"}) {
    const Result<int> value = config.GetIntOr(key, 0);
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << key;
  }
  EXPECT_EQ(config.GetIntOr("max", 0).ValueOrDie(), 2147483647);
  EXPECT_EQ(config.GetIntOr("absent", 5).ValueOrDie(), 5);
}

TEST(CommonFlagsTest, ThreadsFlagIsBoundedBeforeAnyPoolSpawns) {
  for (const char* flag : {"--threads=100000", "--threads=4294967297",
                           "--threads=-1"}) {
    char arg0[] = "app";
    std::string arg1 = flag;
    char* argv[] = {arg0, arg1.data()};
    const CommandLine args = CommandLine::Parse(2, argv).ValueOrDie();
    EXPECT_EQ(ParseCommonFlags(args).status().code(),
              StatusCode::kInvalidArgument)
        << flag;
  }
  char arg0[] = "app";
  char arg1[] = "--threads=1024";
  char* argv[] = {arg0, arg1};
  const CommonFlags flags =
      ParseCommonFlags(CommandLine::Parse(2, argv).ValueOrDie()).ValueOrDie();
  EXPECT_EQ(flags.threads, ThreadPool::kMaxThreads);
}

TEST(ConfigMapTest, BoolSpellings) {
  auto config = ConfigMap::Parse(
                    "a = true\nb = FALSE\nc = 1\nd = 0\n")
                    .ValueOrDie();
  EXPECT_TRUE(config.GetBool("a").ValueOrDie());
  EXPECT_FALSE(config.GetBool("b").ValueOrDie());
  EXPECT_TRUE(config.GetBool("c").ValueOrDie());
  EXPECT_FALSE(config.GetBool("d").ValueOrDie());
}

TEST(ConfigMapTest, CheckAllKeysUsedNamesTheTypo) {
  auto config = ConfigMap::Parse(
                    "budget = 100\n"
                    "bugdet_typo = 5\n")
                    .ValueOrDie();
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 100);
  const Status status = config.CheckAllKeysUsed();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bugdet_typo"), std::string::npos);
}

TEST(ConfigMapTest, CheckAllKeysUsedPassesWhenEverythingIsRead) {
  auto config = ConfigMap::Parse("a = 1\nb = 2\n").ValueOrDie();
  (void)config.GetInt64("a");
  (void)config.GetString("b");
  EXPECT_TRUE(config.CheckAllKeysUsed().ok());
}

TEST(ConfigMapTest, ParseFileRoundTrip) {
  const std::string path = "/tmp/oasis_config_test_roundtrip.cfg";
  {
    std::ofstream out(path);
    out << "# header\nscenario = stripe-f50\nbudget = 321\n";
  }
  auto config = ConfigMap::ParseFile(path).ValueOrDie();
  EXPECT_EQ(config.GetString("scenario").ValueOrDie(), "stripe-f50");
  EXPECT_EQ(config.GetInt64("budget").ValueOrDie(), 321);
  std::remove(path.c_str());
  EXPECT_FALSE(ConfigMap::ParseFile(path).ok());
}

TEST(TrimWhitespaceTest, Trims) {
  EXPECT_EQ(TrimWhitespace("  a b \t"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
