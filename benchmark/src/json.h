// A small JSON reader for the benchmark's own files: BENCHMARK.json (metric
// names, units and bounds) and the results files --compare reads.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace atlas::bench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  // in file order

  // Member `key` of an object; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;
  // As Find, but throws std::runtime_error naming the key when absent.
  const Json& At(std::string_view key) const;
};

// Throws std::runtime_error with the byte offset of the first defect.
Json ParseJson(std::string_view text);
Json ReadJsonFile(const std::string& path);

// `text` as a quoted JSON string.
std::string JsonQuote(std::string_view text);

}  // namespace atlas::bench
