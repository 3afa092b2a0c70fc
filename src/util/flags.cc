#include "util/flags.h"

#include <cstdio>
#include <stdexcept>

#include "util/str.h"

namespace atlas::util {
namespace {

std::string BoolToString(bool b) { return b ? "true" : "false"; }

bool ParseBoolValue(const std::string& s) {
  const std::string lower = ToLower(s);
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  throw std::invalid_argument("Flags: malformed bool: " + s);
}

}  // namespace

void Flags::DefineString(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  defs_[name] = Def{Type::kString, default_value, help};
}

void Flags::DefineInt(const std::string& name, std::int64_t default_value,
                      const std::string& help) {
  defs_[name] = Def{Type::kInt, std::to_string(default_value), help};
}

void Flags::DefineDouble(const std::string& name, double default_value,
                         const std::string& help) {
  defs_[name] = Def{Type::kDouble, FormatDouble(default_value, 6), help};
}

void Flags::DefineBool(const std::string& name, bool default_value,
                       const std::string& help) {
  defs_[name] = Def{Type::kBool, BoolToString(default_value), help};
}

void Flags::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      Assign(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // "--no-name" for booleans.
    if (StartsWith(body, "no-")) {
      const std::string name = body.substr(3);
      auto it = defs_.find(name);
      if (it != defs_.end() && it->second.type == Type::kBool) {
        it->second.value = "false";
        provided_.insert(name);
        continue;
      }
    }
    auto it = defs_.find(body);
    if (it == defs_.end()) {
      throw std::invalid_argument("Flags: unknown flag --" + body);
    }
    if (it->second.type == Type::kBool) {
      it->second.value = "true";
      provided_.insert(body);
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("Flags: missing value for --" + body);
      }
      Assign(body, argv[++i]);
    }
  }
}

const Flags::Def& Flags::Lookup(const std::string& name, Type expected) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    throw std::invalid_argument("Flags: undefined flag: " + name);
  }
  if (it->second.type != expected) {
    throw std::invalid_argument("Flags: type mismatch for flag: " + name);
  }
  return it->second;
}

bool Flags::Provided(const std::string& name) const {
  return provided_.count(name) != 0;
}

void Flags::Assign(const std::string& name, const std::string& value) {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    throw std::invalid_argument("Flags: unknown flag --" + name);
  }
  provided_.insert(name);
  switch (it->second.type) {
    case Type::kString:
      it->second.value = value;
      break;
    case Type::kInt:
      it->second.value = std::to_string(
          static_cast<std::int64_t>(ParseDouble(value)));  // accepts "1e6"
      break;
    case Type::kDouble:
      it->second.value = FormatDouble(ParseDouble(value), 6);
      break;
    case Type::kBool:
      it->second.value = BoolToString(ParseBoolValue(value));
      break;
  }
}

std::string Flags::GetString(const std::string& name) const {
  return Lookup(name, Type::kString).value;
}

std::int64_t Flags::GetInt(const std::string& name) const {
  return static_cast<std::int64_t>(
      std::stoll(Lookup(name, Type::kInt).value));
}

double Flags::GetDouble(const std::string& name) const {
  return ParseDouble(Lookup(name, Type::kDouble).value);
}

bool Flags::GetBool(const std::string& name) const {
  return Lookup(name, Type::kBool).value == "true";
}

std::string Flags::Usage(const std::string& program) const {
  std::string out =
      "usage: " + program + (defs_.empty() ? "" : " [flags]") + "\n";
  for (const auto& [name, def] : defs_) {
    out += "  --" + name + " (default: " + def.value + ")\n      " + def.help +
           "\n";
  }
  return out;
}

}  // namespace atlas::util
