// Small string helpers used across trace parsing and report rendering.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atlas::util {

// Splits on a single-character delimiter. Empty fields are preserved
// ("a,,b" -> {"a", "", "b"}); an empty input yields one empty field.
std::vector<std::string_view> Split(std::string_view s, char delim);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

// "1.5 KB", "258.0 GB" — powers of 1024, one decimal.
std::string FormatBytes(double bytes);

// "1.2K", "3.4M", "80.0M" — powers of 1000, one decimal.
std::string FormatCount(double count);

// "12.3%" with the given number of decimals.
std::string FormatPercent(double fraction, int decimals = 1);

// Fixed-decimal double formatting ("3.14").
std::string FormatDouble(double value, int decimals);

// Pads/truncates to an exact width (left- or right-aligned) for table output.
std::string PadRight(std::string_view s, std::size_t width);
std::string PadLeft(std::string_view s, std::size_t width);

// Parses a non-negative integer / double; throws std::invalid_argument on
// malformed input (trailing garbage included).
std::uint64_t ParseUint64(std::string_view s);
double ParseDouble(std::string_view s);

// Parses a (possibly negative) integer; throws std::invalid_argument on
// malformed input. Callers that need a narrower domain (e.g. non-negative
// timestamps) check the range themselves so they can report which field
// was out of range.
std::int64_t ParseInt64(std::string_view s);

}  // namespace atlas::util
