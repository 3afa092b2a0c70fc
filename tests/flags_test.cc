#include "util/flags.h"

#include <gtest/gtest.h>

namespace atlas::util {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), args);
  return v;
}

TEST(FlagsTest, DefaultsApply) {
  Flags f;
  f.DefineInt("n", 5, "count");
  f.DefineDouble("scale", 0.5, "scale");
  f.DefineBool("verbose", false, "talk");
  f.DefineString("name", "x", "label");
  const auto argv = Argv({});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.GetInt("n"), 5);
  EXPECT_DOUBLE_EQ(f.GetDouble("scale"), 0.5);
  EXPECT_FALSE(f.GetBool("verbose"));
  EXPECT_EQ(f.GetString("name"), "x");
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f;
  f.DefineInt("n", 0, "");
  f.DefineString("s", "", "");
  const auto argv = Argv({"--n=7", "--s=hello"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.GetInt("n"), 7);
  EXPECT_EQ(f.GetString("s"), "hello");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f;
  f.DefineDouble("scale", 0, "");
  const auto argv = Argv({"--scale", "0.25"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(f.GetDouble("scale"), 0.25);
}

TEST(FlagsTest, ScientificNotationForInts) {
  Flags f;
  f.DefineInt("requests", 0, "");
  const auto argv = Argv({"--requests=1e6"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.GetInt("requests"), 1000000);
}

TEST(FlagsTest, BoolForms) {
  Flags f;
  f.DefineBool("a", false, "");
  f.DefineBool("b", true, "");
  f.DefineBool("c", false, "");
  const auto argv = Argv({"--a", "--no-b", "--c=true"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_FALSE(f.GetBool("b"));
  EXPECT_TRUE(f.GetBool("c"));
}

TEST(FlagsTest, Positional) {
  Flags f;
  const auto argv = Argv({"one", "two"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "one");
}

TEST(FlagsTest, UnknownFlagThrows) {
  Flags f;
  const auto argv = Argv({"--bogus=1"});
  EXPECT_THROW(f.Parse(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
}

TEST(FlagsTest, MissingValueThrows) {
  Flags f;
  f.DefineInt("n", 0, "");
  const auto argv = Argv({"--n"});
  EXPECT_THROW(f.Parse(static_cast<int>(argv.size()), argv.data()),
               std::invalid_argument);
}

TEST(FlagsTest, HelpRequested) {
  Flags f;
  const auto argv = Argv({"--help"});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.help_requested());
}

TEST(FlagsTest, TypeMismatchThrows) {
  Flags f;
  f.DefineInt("n", 0, "");
  const auto argv = Argv({});
  f.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(f.GetString("n"), std::invalid_argument);
  EXPECT_THROW(f.GetInt("missing"), std::invalid_argument);
}

TEST(FlagsTest, UsageMentionsFlagsAndDefaults) {
  Flags f;
  f.DefineInt("requests", 100, "number of requests");
  const std::string usage = f.Usage("prog");
  EXPECT_NE(usage.find("--requests"), std::string::npos);
  EXPECT_NE(usage.find("100"), std::string::npos);
  EXPECT_NE(usage.find("number of requests"), std::string::npos);
  EXPECT_EQ(usage.rfind("usage: prog [flags]\n", 0), 0u);
}

TEST(FlagsTest, UsageOmitsFlagsSuffixWhenNoneAreDefined) {
  const Flags f;
  EXPECT_EQ(f.Usage("prog <in> <out>"), "usage: prog <in> <out>\n");
}

}  // namespace
}  // namespace atlas::util
