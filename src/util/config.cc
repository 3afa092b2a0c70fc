#include "util/config.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace atlas::util::config {
namespace {

[[noreturn]] void Fail(const std::string& source, int line, int col,
                       const std::string& what) {
  std::ostringstream os;
  os << source << ":" << line << ":" << col << ": " << what;
  throw ConfigError(os.str());
}

bool IsBareKeyChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-';
}

// Cursor over one line of input; the parser is line-oriented (no multiline
// constructs in the supported subset).
class LineCursor {
 public:
  LineCursor(std::string_view text, int line, const std::string& source)
      : text_(text), line_(line), source_(source) {}

  int col() const { return static_cast<int>(pos_) + 1; }
  int line() const { return line_; }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  // True when nothing but whitespace / a comment remains.
  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size() || text_[pos_] == '#';
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char Next() { return text_[pos_++]; }

  bool Accept(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c, const std::string& what) {
    if (!Accept(c)) {
      Fail(source_, line_, col(),
           "expected '" + std::string(1, c) + "' " + what);
    }
  }

  std::string ParseBareKey() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsBareKeyChar(text_[pos_])) ++pos_;
    if (pos_ == start) {
      Fail(source_, line_, col(),
           "expected a key ([A-Za-z0-9_-]+), found " + Describe());
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string ParseBasicString() {
    Expect('"', "to open a string");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail(source_, line_, col(), "unterminated string");
      }
      char c = Next();
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          Fail(source_, line_, col(), "unterminated escape in string");
        }
        char e = Next();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default:
            Fail(source_, line_, col() - 1,
                 std::string("unsupported escape '\\") + e + "' in string");
        }
        continue;
      }
      out.push_back(c);
    }
  }

  Value ParseValue() {
    SkipSpace();
    Value v;
    v.line = line_;
    v.col = col();
    char c = Peek();
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string_value = ParseBasicString();
      return v;
    }
    if (c == '[') {
      Next();
      v.kind = Value::Kind::kArray;
      SkipSpace();
      if (Accept(']')) return v;
      while (true) {
        v.array.push_back(ParseValue());
        SkipSpace();
        if (Accept(']')) return v;
        Expect(',', "between array elements");
        SkipSpace();
        if (Accept(']')) return v;  // tolerate a trailing comma
      }
    }
    if (c == 't' || c == 'f') {
      std::string word = ParseBareKey();
      if (word == "true" || word == "false") {
        v.kind = Value::Kind::kBool;
        v.bool_value = (word == "true");
        return v;
      }
      Fail(source_, line_, v.col, "unrecognized value '" + word + "'");
    }
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber(v);
    }
    Fail(source_, line_, v.col, "expected a value, found " + Describe());
  }

 private:
  Value ParseNumber(Value v) {
    std::size_t start = pos_;
    bool is_float = false;
    if (Peek() == '+' || Peek() == '-') Next();
    auto digits = [&] {
      bool any = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(Peek())) != 0 ||
              Peek() == '_')) {
        any = any || Peek() != '_';
        Next();
      }
      return any;
    };
    if (!digits()) {
      Fail(source_, line_, col(), "expected digits in number");
    }
    if (Peek() == '.') {
      is_float = true;
      Next();
      if (!digits()) {
        Fail(source_, line_, col(), "expected digits after '.'");
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      is_float = true;
      Next();
      if (Peek() == '+' || Peek() == '-') Next();
      if (!digits()) {
        Fail(source_, line_, col(), "expected digits in exponent");
      }
    }
    std::string text(text_.substr(start, pos_ - start));
    std::erase(text, '_');
    if (is_float) {
      v.kind = Value::Kind::kFloat;
      double out = 0.0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        Fail(source_, line_, v.col, "malformed float '" + text + "'");
      }
      v.float_value = out;
    } else {
      v.kind = Value::Kind::kInt;
      std::int64_t out = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        Fail(source_, line_, v.col, "malformed integer '" + text + "'");
      }
      v.int_value = out;
    }
    return v;
  }

  std::string Describe() const {
    if (pos_ >= text_.size()) return "end of line";
    return "'" + std::string(1, text_[pos_]) + "'";
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
  const std::string& source_;
};

Value* FindMutable(Value& table, const std::string& key) {
  for (auto& [k, v] : table.table) {
    if (k == key) return &v;
  }
  return nullptr;
}

// Resolves a dotted header path ("a.b.c"), creating intermediate tables.
// `as_array` appends a fresh element to an array-of-tables at the leaf.
Value* ResolveHeader(Value& root, const std::vector<std::string>& path,
                     bool as_array, const std::string& source, int line,
                     int col) {
  Value* cur = &root;
  for (std::size_t i = 0; i < path.size(); ++i) {
    bool leaf = (i + 1 == path.size());
    Value* next = FindMutable(*cur, path[i]);
    if (next == nullptr) {
      Value fresh;
      fresh.kind = (leaf && as_array) ? Value::Kind::kArray
                                      : Value::Kind::kTable;
      fresh.line = line;
      fresh.col = col;
      cur->table.emplace_back(path[i], std::move(fresh));
      next = &cur->table.back().second;
    }
    if (leaf) {
      if (as_array) {
        if (next->kind != Value::Kind::kArray) {
          Fail(source, line, col,
               "[[" + path[i] + "]] conflicts with an earlier non-array key");
        }
        Value elem;
        elem.kind = Value::Kind::kTable;
        elem.line = line;
        elem.col = col;
        next->array.push_back(std::move(elem));
        return &next->array.back();
      }
      if (next->kind != Value::Kind::kTable) {
        Fail(source, line, col,
             "[" + path[i] + "] conflicts with an earlier non-table key");
      }
      return next;
    }
    // Descend: through a table directly, or into the last element of an
    // array-of-tables (standard TOML subtable-of-last-element semantics).
    if (next->kind == Value::Kind::kArray) {
      if (next->array.empty() || next->array.back().kind != Value::Kind::kTable) {
        Fail(source, line, col,
             "cannot descend into '" + path[i] + "': not a table array");
      }
      cur = &next->array.back();
    } else if (next->kind == Value::Kind::kTable) {
      cur = next;
    } else {
      Fail(source, line, col,
           "cannot descend into '" + path[i] + "': not a table");
    }
  }
  return cur;
}

}  // namespace

const char* ToString(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kInt: return "integer";
    case Value::Kind::kFloat: return "float";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kTable: return "table";
  }
  return "?";
}

namespace {
[[noreturn]] void KindMismatch(const Value& v, const std::string& source,
                               const char* wanted) {
  Fail(source, v.line, v.col,
       std::string("expected ") + wanted + ", found " + ToString(v.kind));
}
}  // namespace

double Value::AsFloat(const std::string& source) const {
  if (kind == Kind::kInt) return static_cast<double>(int_value);
  if (kind != Kind::kFloat) KindMismatch(*this, source, "float");
  return float_value;
}

const Value* Value::Find(const std::string& key) const {
  for (const auto& [k, v] : table) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value ParseToml(std::string_view text, const std::string& source) {
  Value root;
  root.kind = Value::Kind::kTable;
  root.line = 1;
  root.col = 1;
  Value* current = &root;

  int line_no = 0;
  std::size_t offset = 0;
  while (offset <= text.size()) {
    std::size_t nl = text.find('\n', offset);
    std::string_view line = text.substr(
        offset, nl == std::string_view::npos ? std::string_view::npos
                                             : nl - offset);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_no;

    LineCursor cur(line, line_no, source);
    if (!cur.AtEnd()) {
      if (cur.Peek() == '[') {
        cur.Next();
        bool as_array = cur.Accept('[');
        int hcol = cur.col();
        std::vector<std::string> path;
        path.push_back(cur.ParseBareKey());
        while (cur.Accept('.')) path.push_back(cur.ParseBareKey());
        cur.Expect(']', "to close the table header");
        if (as_array) cur.Expect(']', "to close the table-array header");
        if (!cur.AtEnd()) {
          Fail(source, line_no, cur.col(),
               "unexpected text after table header");
        }
        current = ResolveHeader(root, path, as_array, source, line_no, hcol);
      } else {
        int kcol = cur.col();
        std::string key = cur.ParseBareKey();
        cur.SkipSpace();
        cur.Expect('=', "after key '" + key + "'");
        Value v = cur.ParseValue();
        if (!cur.AtEnd()) {
          Fail(source, line_no, cur.col(), "unexpected text after value");
        }
        if (current->Find(key) != nullptr) {
          Fail(source, line_no, kcol, "duplicate key '" + key + "'");
        }
        current->table.emplace_back(std::move(key), std::move(v));
      }
    }

    if (nl == std::string_view::npos) break;
    offset = nl + 1;
  }
  return root;
}

TableView::TableView(const Value& table, std::string path, std::string source)
    : table_(table), path_(std::move(path)), source_(std::move(source)) {
  if (table_.kind != Value::Kind::kTable) {
    Fail(source_, table_.line, table_.col,
         "expected a table at " + path_ + ", found " + ToString(table_.kind));
  }
  consumed_.assign(table_.table.size(), false);
}

bool TableView::Has(const std::string& key) const {
  return table_.Find(key) != nullptr;
}

const Value* TableView::Consume(const std::string& key) {
  for (std::size_t i = 0; i < table_.table.size(); ++i) {
    if (table_.table[i].first == key) {
      consumed_[i] = true;
      return &table_.table[i].second;
    }
  }
  return nullptr;
}

ConfigError TableView::MissingKey(const std::string& key) const {
  std::ostringstream os;
  os << source_ << ":" << table_.line << ":" << table_.col << ": " << path_
     << " is missing required key '" << key << "'";
  return ConfigError(os.str());
}

const Value& TableView::Require(const std::string& key, Value::Kind kind) {
  const Value* v = Consume(key);
  if (v == nullptr) throw MissingKey(key);
  if (v->kind != kind &&
      !(kind == Value::Kind::kFloat && v->kind == Value::Kind::kInt)) {
    Fail(source_, v->line, v->col,
         path_ + "." + key + ": expected " + ToString(kind) + ", found " +
             ToString(v->kind));
  }
  return *v;
}

std::string TableView::GetString(const std::string& key) {
  return Require(key, Value::Kind::kString).string_value;
}
std::int64_t TableView::GetInt(const std::string& key) {
  return Require(key, Value::Kind::kInt).int_value;
}
double TableView::GetFloat(const std::string& key) {
  return Require(key, Value::Kind::kFloat).AsFloat(source_);
}
bool TableView::GetBool(const std::string& key) {
  return Require(key, Value::Kind::kBool).bool_value;
}

std::string TableView::GetString(const std::string& key,
                                 const std::string& def) {
  return Has(key) ? GetString(key) : def;
}
std::int64_t TableView::GetInt(const std::string& key, std::int64_t def) {
  return Has(key) ? GetInt(key) : def;
}
double TableView::GetFloat(const std::string& key, double def) {
  return Has(key) ? GetFloat(key) : def;
}
bool TableView::GetBool(const std::string& key, bool def) {
  return Has(key) ? GetBool(key) : def;
}

void TableView::RejectUnknownKeys() const {
  for (std::size_t i = 0; i < table_.table.size(); ++i) {
    if (!consumed_[i]) {
      const auto& [key, v] = table_.table[i];
      Fail(source_, v.line, v.col,
           path_ + ": unknown key '" + key + "'");
    }
  }
}

std::string TomlString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string TomlFloat(double v) {
  // Shortest decimal form that round-trips; force a '.' or exponent so the
  // value re-parses as a float, not an integer.
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  std::string out(buf);
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos &&
      out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

}  // namespace atlas::util::config
