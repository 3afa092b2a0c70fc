// Minimal dependency-free TOML reader for declarative scenario configs.
//
// Supports the subset the scenario engine needs, parsed loudly: bare keys,
// `key = value` pairs (strings, integers, floats, booleans, homogeneous
// arrays), `[table]` headers with dotted paths, and `[[array-of-tables]]`
// blocks. Everything else — inline tables, multiline strings, dates,
// duplicate keys — is a ConfigError that names the offending line and
// column. The reader never guesses: a malformed file fails to parse, it
// does not half-load.
//
// Consumers walk the parsed tree through TableView, which tracks which
// keys were read and rejects files containing keys nothing consumed
// (typos in a scenario file must fail, not silently fall back to
// defaults).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace atlas::util::config {

// Parse or schema error; the message always carries "<source>:line:col".
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

// One parsed value. Tables preserve insertion order (so canonical
// re-serialization is stable) and are represented as key/value pair lists —
// scenario files are small, linear lookup is fine.
class Value {
 public:
  enum class Kind : std::uint8_t {
    kBool = 0,
    kInt = 1,
    kFloat = 2,
    kString = 3,
    kArray = 4,
    kTable = 5,
  };

  Kind kind = Kind::kTable;
  int line = 0;
  int col = 0;

  bool bool_value = false;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  std::string string_value;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> table;

  // Typed accessor; throws ConfigError naming the value's position when the
  // kind does not match. Accepts integers (TOML writes `1` for 1.0).
  double AsFloat(const std::string& source) const;

  // Table lookup; nullptr when absent.
  const Value* Find(const std::string& key) const;
};

const char* ToString(Value::Kind kind);

// Parses TOML text into a root table Value. `source` names the input in
// errors (a file path, or "<inline>").
Value ParseToml(std::string_view text, const std::string& source);

// Schema-walking view over a parsed table: every getter marks its key
// consumed, and RejectUnknownKeys() fails on the first key nothing read.
// `path` is the table's dotted position ("site[2]", "simulator.push") so
// schema errors read like the file.
class TableView {
 public:
  TableView(const Value& table, std::string path, std::string source);

  bool Has(const std::string& key) const;

  // Required getters: throw when the key is missing or mistyped.
  std::string GetString(const std::string& key);
  std::int64_t GetInt(const std::string& key);
  double GetFloat(const std::string& key);
  bool GetBool(const std::string& key);

  // Optional getters: return the default when the key is absent.
  std::string GetString(const std::string& key, const std::string& def);
  std::int64_t GetInt(const std::string& key, std::int64_t def);
  double GetFloat(const std::string& key, double def);
  bool GetBool(const std::string& key, bool def);

  // Marks `key` consumed and returns its value, or nullptr when absent.
  // For nested tables / arrays-of-tables the caller builds child
  // TableViews.
  const Value* Consume(const std::string& key);

  // Throws ConfigError on the first key no getter consumed.
  void RejectUnknownKeys() const;


 private:
  const Value& Require(const std::string& key, Value::Kind kind);
  ConfigError MissingKey(const std::string& key) const;

  const Value& table_;
  std::string path_;
  std::string source_;
  std::vector<bool> consumed_;
};

// Serialization helpers for writing canonical TOML back out: quoted/escaped
// string literal, and a float form that round-trips exactly (shortest
// representation re-parsing to the same double).
std::string TomlString(const std::string& s);
std::string TomlFloat(double v);

}  // namespace atlas::util::config
