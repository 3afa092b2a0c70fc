#include "json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace atlas::bench {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json Document() {
    Json value = Value();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json Value() {
    Json v;
    const char c = Peek();
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      if (Peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        if (Peek() != '"') Fail("expected a key");
        std::string key = String();
        Expect(':');
        v.object.emplace_back(std::move(key), Value());
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        Expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      if (Peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(Value());
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        Expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.string = String();
      return v;
    }
    if (Literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (Literal("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (Literal("null")) return v;
    return Number();
  }

  Json Number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) Fail("unexpected character");
    const std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) Fail("malformed number");
    return v;
  }

  std::string String() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("short \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::stoul(std::string(text_.substr(pos_, 4)), nullptr, 16));
          pos_ += 4;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: out += c; break;  // \" \\ \/
      }
    }
    Expect('"');
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::At(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key \"" + std::string(key) + "\"");
  }
  return *v;
}

Json ParseJson(std::string_view text) { return Parser(text).Document(); }

Json ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseJson(text.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace atlas::bench
