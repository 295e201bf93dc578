#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace forktail::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError(pos_, why);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': {
        // Bounded recursion: the parser is recursive-descent, so depth is
        // stack usage.  The cap turns a hostile ~100k-bracket document into
        // a typed error instead of a stack overflow.
        if (depth_ >= kMaxJsonDepth) fail("nesting too deep");
        ++depth_;
        Json v = object();
        --depth_;
        return v;
      }
      case '[': {
        if (depth_ >= kMaxJsonDepth) fail("nesting too deep");
        ++depth_;
        Json v = array();
        --depth_;
        return v;
      }
      case '"':
        return Json(raw_string());
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  Json object() {
    Json v = Json::object();
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      const std::string key = raw_string();
      if (v.contains(key)) fail("duplicate key: " + key);
      expect(':');
      v.set(key, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v = Json::array();
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  /// Read the 4 hex digits of a \u escape.  On entry pos_ is at the 'u';
  /// on return pos_ is at the last digit (the caller's ++pos_ steps past).
  unsigned hex4() {
    if (pos_ + 4 >= text_.size()) fail("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + 1 + static_cast<std::size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    pos_ += 4;
    return code;
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) fail("bad escape");
        switch (text_[pos_]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = hex4();
            if (code >= 0xDC00 && code <= 0xDFFF) {
              fail("lone low surrogate");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: a \uDC00-\uDFFF low half must follow, and
              // the pair decodes to one supplementary-plane code point.
              if (pos_ + 2 >= text_.size() || text_[pos_ + 1] != '\\' ||
                  text_[pos_ + 2] != 'u') {
                fail("lone high surrogate");
              }
              pos_ += 2;
              const unsigned low = hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            // Encode the code point as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code < 0x10000) {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xF0 | (code >> 18)));
              out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("unknown escape");
        }
        ++pos_;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      out.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json boolean() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json(false);
    }
    fail("bad literal");
  }

  Json null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return Json();
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    const std::string token = text_.substr(start, pos_ - start);
    // strtod, not stod: stod throws out_of_range on every subnormal result
    // (ERANGE), so "4.9e-324" would not parse back.  Overflow still fails
    // the isfinite check below; underflow rounds like any other literal.
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    // strtod parses the longest valid prefix; "1e+e" must not pass as 1.
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      fail("malformed number");
    }
    return Json(v);
  }
};

}  // namespace

void write_json_number(std::string& out, double v) {
  // The shortest %.*g precision that parses back exactly, so common values
  // stay readable (1 not 1.0000000000000000).  std::to_chars's shortest
  // scientific form has the fewest significant digits that round-trip, so
  // no smaller precision can; the search starts there instead of at 1.
  // Non-finite values fall through to %.17g ("inf", "nan"), as before.
  int prec = 1;
  if (std::isfinite(v)) {
    char sci[32];
    const auto res =
        std::to_chars(sci, sci + sizeof(sci), v, std::chars_format::scientific);
    prec = 0;
    for (const char* c = sci; c != res.ptr && *c != 'e'; ++c) {
      if (*c >= '0' && *c <= '9') ++prec;
    }
  }
  char buf[40];
  for (; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

double Json::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return text_;
}

bool Json::contains(const std::string& key) const {
  return kind_ == Kind::kObject && fields_.find(key) != fields_.end();
}

const Json& Json::at(const std::string& key) const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  const auto it = fields_.find(key);
  if (it == fields_.end()) throw std::runtime_error("json: missing key: " + key);
  return it->second;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  fields_[key] = std::move(value);
  return *this;
}

std::set<std::string> Json::keys() const {
  std::set<std::string> out;
  for (const auto& [k, v] : fields_) out.insert(k);
  return out;
}

Json& Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  items_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const noexcept {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return fields_.size();
  return 0;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return text_ == other.text_;
    case Kind::kArray:
      return items_ == other.items_;
    case Kind::kObject:
      return fields_ == other.fields_;
  }
  return false;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      write_json_number(out, number_);
      return;
    case Kind::kString:
      out.push_back('"');
      out += json_escape(text_);
      out.push_back('"');
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        item.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : fields_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        out.push_back('"');
        out += json_escape(key);
        out += indent > 0 ? "\": " : "\":";
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

std::string read_text_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace forktail::util
