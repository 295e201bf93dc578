// Minimal JSON value type with a recursive-descent parser and a
// deterministic writer.
//
// Grown out of the in-test reader that test_report_schema.cpp used to pin
// the RunReport / BENCH_replay schemas; promoted here so the scenario layer
// (ScenarioSpec files), the observability reports, and the tests all share
// one implementation instead of ad-hoc readers.  Deliberately small: no
// third-party dependency, object keys kept in sorted (std::map) order so
// serialization is deterministic, numbers emitted at the shortest %.*g
// precision that round-trips, so parse(dump(x)) == x for every finite
// double, subnormals included.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace forktail::util {

/// Maximum nesting depth the parser accepts.  Bounds the recursion of the
/// recursive-descent parser so adversarial input (e.g. 100k open brackets)
/// raises a typed error instead of overflowing the stack.
inline constexpr int kMaxJsonDepth = 200;

/// Thrown on malformed JSON input.  `offset()` is the byte position the
/// parser had reached; the what() string already includes it.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& why)
      : std::runtime_error("json parse error at byte " +
                           std::to_string(offset) + ": " + why),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  // ------------------------------------------------------------ builders
  Json() = default;  ///< null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), number_(v) {}
  Json(int v) : kind_(Kind::kNumber), number_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), text_(s) {}

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Parse a complete JSON document.  Throws JsonParseError (which carries
  /// the byte offset) on malformed input: syntax errors, nesting deeper
  /// than kMaxJsonDepth, duplicate object keys, numbers that do not fit a
  /// double, invalid escapes, and lone UTF-16 surrogates are all rejected
  /// with a typed error -- never undefined behaviour.
  static Json parse(const std::string& text);

  // ----------------------------------------------------------- accessors
  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }

  /// Typed extraction; throws std::runtime_error on kind mismatch.
  double as_number() const;
  bool as_bool() const;
  const std::string& as_string() const;

  // ------------------------------------------------------ object surface
  /// True when this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Member access; throws std::runtime_error when absent or not an object.
  const Json& at(const std::string& key) const;
  /// Insert-or-assign on an object (null values upgrade to objects).
  Json& set(const std::string& key, Json value);
  std::set<std::string> keys() const;
  const std::map<std::string, Json>& fields() const noexcept { return fields_; }

  // ------------------------------------------------------- array surface
  /// Append to an array (null values upgrade to arrays).
  Json& push_back(Json value);
  const std::vector<Json>& items() const noexcept { return items_; }
  std::size_t size() const noexcept;

  // -------------------------------------------------------- serialization
  /// Deterministic serialization: object keys in sorted order, numbers at
  /// round-trip precision.  `indent` > 0 pretty-prints; 0 emits compact.
  std::string dump(int indent = 2) const;

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  double number_ = 0.0;
  bool bool_ = false;
  std::string text_;
  std::vector<Json> items_;
  std::map<std::string, Json> fields_;
};

/// Append `v` the way Json::dump writes a number: `%.*g` at the smallest
/// precision that parses back to exactly `v` (1000 is "1e+03", 0.1 is
/// "0.1").  Exposed for fixed-schema writers that must match dump's bytes.
void write_json_number(std::string& out, double v);

/// Escape a string for embedding in a JSON document (without quotes).
std::string json_escape(const std::string& text);

/// Read an entire file into a string; throws std::runtime_error when the
/// file cannot be opened.
std::string read_text_file(const std::string& path);

}  // namespace forktail::util
