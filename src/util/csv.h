// Minimal CSV reading/writing with RFC-4180 quoting.
//
// Used to export traces and figure data (each bench binary can dump the
// series it prints, so plots can be regenerated outside C++).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace atlas::util {

// Streams rows to any std::ostream. Fields containing the delimiter, quotes,
// or newlines are quoted and inner quotes doubled.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char delim = ',')
      : out_(out), delim_(delim) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  // Appends one field to the current row.
  CsvWriter& Field(std::string_view value);
  CsvWriter& Field(std::uint64_t value);
  CsvWriter& Field(std::int64_t value);
  CsvWriter& Field(double value, int decimals = 6);

  // Terminates the current row.
  void EndRow();

  // Convenience: writes an entire row of string fields.
  void Row(const std::vector<std::string>& fields);


 private:
  std::ostream& out_;
  char delim_;
  bool row_started_ = false;
};

// Parses one CSV line into fields, honoring quotes. Throws on unterminated
// quotes. (Multi-line quoted fields are not supported; ATLAS never emits
// them.)
std::vector<std::string> ParseCsvLine(std::string_view line, char delim = ',');

}  // namespace atlas::util
