// The TOML subset reader behind scenario files: values parse with positions,
// malformed input fails naming line and column, TableView enforces the
// consume-every-key contract, and the serialization helpers round-trip.
#include "util/config.h"

#include <gtest/gtest.h>

#include <string>

namespace atlas::util::config {
namespace {

Value Parse(const std::string& text) { return ParseToml(text, "<test>"); }

// Typed reads go through TableView, the getters scenario files use.
TableView View(const Value& table) {
  return TableView(table, "root", "<test>");
}

std::string ErrorOf(const std::string& text) {
  try {
    ParseToml(text, "<test>");
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigTest, ParsesScalarsWithTypes) {
  const Value root = Parse(
      "name = \"abc\"\n"
      "count = 42\n"
      "big = 1_000_000\n"
      "ratio = 0.25\n"
      "sci = 1e3\n"
      "neg = -7\n"
      "on = true\n"
      "off = false\n");
  EXPECT_EQ(View(root).GetString("name"), "abc");
  EXPECT_EQ(View(root).GetInt("count"), 42);
  EXPECT_EQ(View(root).GetInt("big"), 1000000);
  EXPECT_DOUBLE_EQ(root.Find("ratio")->AsFloat("<test>"), 0.25);
  EXPECT_DOUBLE_EQ(root.Find("sci")->AsFloat("<test>"), 1000.0);
  EXPECT_EQ(View(root).GetInt("neg"), -7);
  EXPECT_TRUE(View(root).GetBool("on"));
  EXPECT_FALSE(View(root).GetBool("off"));
}

TEST(ConfigTest, IntPromotesToFloatButNotBack) {
  const Value root = Parse("x = 3\n");
  EXPECT_DOUBLE_EQ(root.Find("x")->AsFloat("<test>"), 3.0);
  const Value f = Parse("y = 3.5\n");
  EXPECT_THROW(View(f).GetInt("y"), ConfigError);
}

TEST(ConfigTest, StringEscapes) {
  const Value root = Parse(R"(s = "a\"b\\c\nd")" "\n");
  EXPECT_EQ(View(root).GetString("s"), "a\"b\\c\nd");
}

TEST(ConfigTest, ArraysAndTrailingComma) {
  const Value root = Parse("xs = [1, 2, 3,]\n");
  const Value* xs = root.Find("xs");
  ASSERT_EQ(xs->kind, Value::Kind::kArray);
  ASSERT_EQ(xs->array.size(), 3u);
  EXPECT_EQ(xs->array[2].kind, Value::Kind::kInt);
  EXPECT_EQ(xs->array[2].int_value, 3);
}

TEST(ConfigTest, DottedTableHeaders) {
  const Value root = Parse(
      "[a.b]\n"
      "x = 1\n"
      "[a.c]\n"
      "y = 2\n");
  const Value* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(View(*a->Find("b")).GetInt("x"), 1);
  EXPECT_EQ(View(*a->Find("c")).GetInt("y"), 2);
}

TEST(ConfigTest, ArrayOfTables) {
  const Value root = Parse(
      "[[site]]\n"
      "name = \"one\"\n"
      "[[site]]\n"
      "name = \"two\"\n");
  const Value* sites = root.Find("site");
  ASSERT_EQ(sites->kind, Value::Kind::kArray);
  ASSERT_EQ(sites->array.size(), 2u);
  EXPECT_EQ(View(sites->array[1]).GetString("name"), "two");
}

TEST(ConfigTest, CommentsAndBlankLines) {
  const Value root = Parse(
      "# leading comment\n"
      "\n"
      "x = 1  # trailing comment\n");
  EXPECT_EQ(View(root).GetInt("x"), 1);
}

TEST(ConfigTest, ErrorsCarrySourceLineAndColumn) {
  const std::string err = ErrorOf("ok = 1\nbad = @nope\n");
  EXPECT_NE(err.find("<test>:2:"), std::string::npos) << err;
}

TEST(ConfigTest, DuplicateKeyRejected) {
  const std::string err = ErrorOf("x = 1\nx = 2\n");
  EXPECT_NE(err.find("duplicate key 'x'"), std::string::npos) << err;
}

TEST(ConfigTest, UnterminatedStringRejected) {
  EXPECT_NE(ErrorOf("s = \"oops\n").find("unterminated"), std::string::npos);
}

TEST(ConfigTest, TextAfterValueRejected) {
  EXPECT_NE(ErrorOf("x = 1 y\n").find("unexpected text"), std::string::npos);
}

TEST(ConfigTest, TableViewRequiredAndDefaulted) {
  const Value root = Parse("x = 5\n");
  TableView t(root, "root", "<test>");
  EXPECT_EQ(t.GetInt("x"), 5);
  EXPECT_EQ(t.GetInt("missing", 9), 9);
  EXPECT_THROW(t.GetInt("missing"), ConfigError);
}

TEST(ConfigTest, TableViewTypeMismatchNamesPathAndTypes) {
  const Value root = Parse("x = \"nope\"\n");
  TableView t(root, "root", "<test>");
  try {
    t.GetInt("x");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("root.x"), std::string::npos) << what;
    EXPECT_NE(what.find("expected integer"), std::string::npos) << what;
  }
}

TEST(ConfigTest, RejectUnknownKeysNamesTheTypo) {
  const Value root = Parse("good = 1\ntypo = 2\n");
  TableView t(root, "root", "<test>");
  t.GetInt("good");
  try {
    t.RejectUnknownKeys();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'typo'"), std::string::npos) << what;
    EXPECT_NE(what.find("<test>:2:"), std::string::npos) << what;
  }
}

TEST(ConfigTest, ConsumedNestedTablesPassRejectUnknownKeys) {
  const Value root = Parse("[sub]\nx = 1\n");
  TableView t(root, "root", "<test>");
  const Value* sub = t.Consume("sub");
  ASSERT_NE(sub, nullptr);
  TableView s(*sub, "root.sub", "<test>");
  s.GetInt("x");
  EXPECT_NO_THROW(s.RejectUnknownKeys());
  EXPECT_NO_THROW(t.RejectUnknownKeys());
}

TEST(ConfigTest, TomlStringEscapesRoundTrip) {
  const std::string literal = TomlString("a\"b\\c\nd");
  const Value root = Parse("s = " + literal + "\n");
  EXPECT_EQ(View(root).GetString("s"), "a\"b\\c\nd");
}

TEST(ConfigTest, TomlFloatRoundTripsExactly) {
  for (const double v : {0.0, 1.0, 0.25, 0.1, 1e-9, 6.02214076e23, -3.75,
                         0.004, 1.0 / 3.0}) {
    const std::string rendered = TomlFloat(v);
    const Value root = Parse("x = " + rendered + "\n");
    EXPECT_EQ(root.Find("x")->AsFloat("<test>"), v) << rendered;
    // A float must re-parse as a float, never collapse to an integer.
    EXPECT_EQ(root.Find("x")->kind, Value::Kind::kFloat) << rendered;
  }
}

}  // namespace
}  // namespace atlas::util::config
