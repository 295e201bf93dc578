#include "util/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace forktail::util {

void CliFlags::declare(const std::string& name, const std::string& default_value,
                       const std::string& help) {
  flags_[name] = Flag{default_value, help, std::nullopt};
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      name = arg.substr(2);
      auto it = flags_.find(name);
      if (it == flags_.end()) throw std::invalid_argument("unknown flag: --" + name);
      if (i + 1 >= argc) throw std::invalid_argument("missing value for --" + name);
      value = argv[++i];
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) throw std::invalid_argument("unknown flag: --" + name);
    it->second.value = value;
  }
  return true;
}

const CliFlags::Flag& CliFlags::find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("flag not declared: --" + name);
  }
  return it->second;
}

std::string CliFlags::get_string(const std::string& name) const {
  const Flag& f = find(name);
  return f.value.value_or(f.default_value);
}

double CliFlags::get_double(const std::string& name) const {
  return parse_double(name, get_string(name));
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  return parse_int(name, get_string(name));
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got: " + v);
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

namespace {

std::invalid_argument not_a_number(const std::string& flag,
                                   const std::string& token) {
  return std::invalid_argument("flag --" + flag + " expects a number, got: " +
                               token);
}

}  // namespace

double parse_double(const std::string& flag, const std::string& token) {
  std::size_t used = 0;
  try {
    const double value = std::stod(token, &used);
    if (used == token.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument (no number at all) or std::out_of_range
  }
  throw not_a_number(flag, token);
}

std::int64_t parse_int(const std::string& flag, const std::string& token) {
  std::size_t used = 0;
  try {
    const long long value = std::stoll(token, &used);
    if (used == token.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument (no number at all) or std::out_of_range
  }
  throw not_a_number(flag, token);
}

BenchScale parse_scale(const std::string& text) {
  if (text == "smoke") return BenchScale::kSmoke;
  if (text == "default") return BenchScale::kDefault;
  if (text == "full") return BenchScale::kFull;
  throw std::invalid_argument("scale must be smoke|default|full, got: " + text);
}

double scale_factor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return 0.1;
    case BenchScale::kDefault:
      return 1.0;
    case BenchScale::kFull:
      return 5.0;
  }
  return 1.0;
}

}  // namespace forktail::util
