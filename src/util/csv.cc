#include "util/csv.h"

#include <cstdio>
#include <stdexcept>

namespace atlas::util {
namespace {

bool NeedsQuoting(std::string_view value, char delim) {
  for (char c : value) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

CsvWriter& CsvWriter::Field(std::string_view value) {
  if (row_started_) out_ << delim_;
  row_started_ = true;
  if (NeedsQuoting(value, delim_)) {
    out_ << '"';
    for (char c : value) {
      if (c == '"') out_ << '"';
      out_ << c;
    }
    out_ << '"';
  } else {
    out_ << value;
  }
  return *this;
}

CsvWriter& CsvWriter::Field(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  return Field(std::string_view(buf));
}

CsvWriter& CsvWriter::Field(std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return Field(std::string_view(buf));
}

CsvWriter& CsvWriter::Field(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Field(std::string_view(buf));
}

void CsvWriter::EndRow() {
  out_ << '\n';
  row_started_ = false;
}

void CsvWriter::Row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) Field(f);
  EndRow();
}

std::vector<std::string> ParseCsvLine(std::string_view line, char delim) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
    ++i;
  }
  if (in_quotes) {
    throw std::invalid_argument("ParseCsvLine: unterminated quoted field");
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace atlas::util
