#include "util/str.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace atlas::util {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const auto eq = [](unsigned char a, unsigned char b) {
    return std::tolower(a) == std::tolower(b);
  };
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (!eq(haystack[i + j], needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::string FormatBytes(double bytes) {
  static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  double v = bytes;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f B", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string FormatCount(double count) {
  static const char* const kUnits[] = {"", "K", "M", "B", "T"};
  int unit = 0;
  double v = count;
  while (v >= 1000.0 && unit < 4) {
    v /= 1000.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, kUnits[unit]);
  }
  return buf;
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string FormatDouble(double value, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string PadRight(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string PadLeft(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s.substr(0, width));
  std::string out(width - s.size(), ' ');
  out.append(s);
  return out;
}

std::uint64_t ParseUint64(std::string_view s) {
  s = Trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("ParseUint64: malformed integer: " +
                                std::string(s));
  }
  return value;
}

std::int64_t ParseInt64(std::string_view s) {
  s = Trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("ParseInt64: malformed integer: " +
                                std::string(s));
  }
  return value;
}

double ParseDouble(std::string_view s) {
  s = Trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("ParseDouble: malformed double: " +
                                std::string(s));
  }
  return value;
}

}  // namespace atlas::util
