// Tiny command-line flag parser shared by bench binaries and examples.
//
// Supports `--name value` and `--name=value`.  Unknown flags are an error so
// typos in experiment sweeps fail loudly instead of silently running the
// default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace forktail::util {

class CliFlags {
 public:
  /// Declare a flag with a default value (as text) and a help string.
  void declare(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parse argv; throws std::invalid_argument on unknown flags or missing
  /// values.  `--help` prints usage and returns false.
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  /// Numeric values go through parse_double / parse_int (below).
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  const Flag& find(const std::string& name) const;

  std::map<std::string, Flag> flags_;
};

/// `token`, a value of flag --`flag`, as a number.  The whole token must
/// parse ("5x" and "" do not); otherwise throws std::invalid_argument
/// "flag --<flag> expects a number, got: <token>".
double parse_double(const std::string& flag, const std::string& token);
std::int64_t parse_int(const std::string& flag, const std::string& token);

/// The standard scale knob shared by all figure-reproduction binaries.
enum class BenchScale { kSmoke, kDefault, kFull };

BenchScale parse_scale(const std::string& text);

/// Multiplier applied to sample counts: smoke=0.1, default=1, full=5.
double scale_factor(BenchScale scale);

}  // namespace forktail::util
