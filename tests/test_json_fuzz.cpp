// Adversarial-input tests for util::Json: every malformed document must
// raise util::JsonParseError -- never crash, overflow the stack, or parse
// silently wrong.  Complements the schema-oriented happy-path coverage in
// test_report_schema.cpp, plus the number writer: shortest round-trip
// output, bit-exact parse(dump(x)) for every finite double including
// subnormals, and byte equality with the former precision search.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "util/rng.hpp"

namespace forktail::util {
namespace {

TEST(JsonFuzz, DeepNestingHitsTypedDepthCap) {
  // 100k open brackets would overflow the stack of a naive recursive
  // parser; the depth cap must turn it into a typed error.
  std::string hostile(100000, '[');
  EXPECT_THROW(Json::parse(hostile), JsonParseError);

  // Mixed object/array nesting counts the same way.
  std::string mixed;
  for (int i = 0; i < 50000; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(Json::parse(mixed), JsonParseError);
}

TEST(JsonFuzz, DepthCapIsExact) {
  const auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s += "1";
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  EXPECT_NO_THROW(Json::parse(nested(kMaxJsonDepth)));
  EXPECT_THROW(Json::parse(nested(kMaxJsonDepth + 1)), JsonParseError);
}

TEST(JsonFuzz, OverlongNumbersRejectedNotUndefined) {
  // Values outside double range must error, not return inf.
  EXPECT_THROW(Json::parse("1e999"), JsonParseError);
  EXPECT_THROW(Json::parse("-1e999"), JsonParseError);
  std::string huge = "1";
  huge.append(400, '0');
  EXPECT_THROW(Json::parse(huge), JsonParseError);
  // A long but in-range digit string is fine.
  EXPECT_DOUBLE_EQ(Json::parse("0.3333333333333333333333333333").as_number(),
                   1.0 / 3.0);
  // Number-charset garbage must not reach stod unchecked.
  EXPECT_THROW(Json::parse("--1"), JsonParseError);
  EXPECT_THROW(Json::parse("1e+e"), JsonParseError);
  EXPECT_THROW(Json::parse("+"), JsonParseError);
}

TEST(JsonFuzz, DuplicateObjectKeysRejected) {
  EXPECT_THROW(Json::parse("{\"a\": 1, \"a\": 2}"), JsonParseError);
  // Same key at different depths is fine.
  EXPECT_NO_THROW(Json::parse("{\"a\": {\"a\": 1}}"));
}

TEST(JsonFuzz, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  const Json v = Json::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonFuzz, LoneSurrogatesRejected) {
  EXPECT_THROW(Json::parse("\"\\ud800\""), JsonParseError);     // high alone
  EXPECT_THROW(Json::parse("\"\\udc00\""), JsonParseError);     // low alone
  EXPECT_THROW(Json::parse("\"\\ud800x\""), JsonParseError);    // high + text
  EXPECT_THROW(Json::parse("\"\\ud800\\n\""), JsonParseError);  // high + escape
  EXPECT_THROW(Json::parse("\"\\ud800\\ud800\""), JsonParseError);  // high+high
}

TEST(JsonFuzz, InvalidEscapesRejected) {
  EXPECT_THROW(Json::parse("\"\\q\""), JsonParseError);
  EXPECT_THROW(Json::parse("\"\\u12\""), JsonParseError);    // short
  EXPECT_THROW(Json::parse("\"\\u12zz\""), JsonParseError);  // bad digit
  EXPECT_THROW(Json::parse("\"\\"), JsonParseError);         // escape at EOF
}

TEST(JsonFuzz, UnescapedControlCharactersRejected) {
  EXPECT_THROW(Json::parse("\"a\nb\""), JsonParseError);
  EXPECT_THROW(Json::parse(std::string("\"a\0b\"", 5)), JsonParseError);
  EXPECT_NO_THROW(Json::parse("\"a\\nb\""));
}

TEST(JsonFuzz, ErrorCarriesByteOffset) {
  try {
    Json::parse("{\"a\": 1, \"a\": 2}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonFuzz, TruncatedDocumentsRejected) {
  for (const char* doc : {"{", "[", "\"abc", "{\"a\":", "[1,", "tru", "nul",
                          "{\"a\" 1}", "", "  "}) {
    EXPECT_THROW(Json::parse(doc), JsonParseError) << "doc: " << doc;
  }
}

TEST(JsonFuzz, RandomByteSoupNeverCrashes) {
  // Pure crash test: random byte strings either parse (rare) or raise the
  // typed error.  Any other escape (segfault, uncaught exception type)
  // fails the test run.
  util::Rng rng(20260806);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = 1 + static_cast<std::size_t>(rng.uniform() * 64);
    std::string soup;
    soup.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      // Bias toward structural characters so the parser gets deep.
      const double pick = rng.uniform();
      if (pick < 0.5) {
        const char structural[] = "{}[]\",:0123456789.eE+-\\u\"tfn ";
        soup.push_back(
            structural[static_cast<std::size_t>(rng.uniform() * (sizeof(structural) - 1))]);
      } else {
        soup.push_back(static_cast<char>(rng.uniform() * 256.0));
      }
    }
    try {
      (void)Json::parse(soup);
    } catch (const JsonParseError&) {
      // expected for almost every input
    }
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTrip) {
  // Structurally generated random documents must survive dump -> parse
  // exactly (the writer's determinism contract).
  util::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    Json doc = Json::object();
    const int n = 1 + static_cast<int>(rng.uniform() * 8);
    for (int i = 0; i < n; ++i) {
      const std::string key = "k" + std::to_string(i);
      const double pick = rng.uniform();
      if (pick < 0.4) {
        doc.set(key, Json(rng.uniform() * 1e6 - 5e5));
      } else if (pick < 0.6) {
        doc.set(key, Json(rng.uniform() < 0.5));
      } else if (pick < 0.8) {
        std::string s;
        for (int c = 0; c < 10; ++c) {
          s.push_back(static_cast<char>(' ' + rng.uniform() * 94));
        }
        doc.set(key, Json(s));
      } else {
        Json arr = Json::array();
        for (int c = 0; c < 3; ++c) arr.push_back(Json(rng.uniform()));
        doc.set(key, std::move(arr));
      }
    }
    EXPECT_EQ(Json::parse(doc.dump()), doc);
    EXPECT_EQ(Json::parse(doc.dump(0)), doc);
  }
}

// ---------------------------------------------------------- number writer

/// The writer's former search, kept as the byte oracle: the first %.*g
/// precision in 1..17 whose std::stod parses back to `v`.  stod throws
/// std::out_of_range on subnormal results, so this returns nullopt for
/// every value whose search touched the subnormal range.
std::optional<std::string> stod_search_oracle(double v) {
  char buf[40];
  try {
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::stod(buf) == v) break;
    }
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  return std::string(buf);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(JsonFuzz, SubnormalsRoundTrip) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Json(tiny).dump(), "5e-324");
  EXPECT_EQ(Json::parse("4.9e-324").as_number(), tiny);
  EXPECT_EQ(Json::parse("-4.9e-324").as_number(), -tiny);
  EXPECT_EQ(Json::parse(Json(DBL_MIN / 3.0).dump()).as_number(), DBL_MIN / 3.0);
  // Below half the smallest subnormal a literal rounds to zero, like any
  // other decimal that is not exactly representable.
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
}

TEST(JsonFuzz, RandomBitPatternsDumpShortestAndRoundTripBitExact) {
  // Raw 64-bit patterns (NaN and infinity excluded) with the exponent
  // field biased toward the subnormal range and the normals just above
  // DBL_MIN, where the old search's short precisions round into it.
  util::Rng rng(20261017);
  int oracle_compared = 0, subnormals = 0;
  for (int round = 0; round < 40000; ++round) {
    std::uint64_t bits = rng.next_u64();
    const int pick = round % 4;
    if (pick == 1) {
      bits &= ~(0x7FFULL << 52);  // exponent 0: subnormal (or signed zero)
    } else if (pick == 2) {
      bits = (bits & ~(0x7FFULL << 52)) | ((1 + (bits >> 60)) << 52);
    }
    const double v = from_bits(bits);
    if (!std::isfinite(v)) continue;
    if (std::fpclassify(v) == FP_SUBNORMAL) ++subnormals;

    std::string text;
    ASSERT_NO_THROW(text = Json(v).dump()) << std::hexfloat << v;
    double back = 0.0;
    ASSERT_NO_THROW(back = Json::parse(text).as_number()) << text;
    ASSERT_EQ(bits_of(back), bits) << text;

    if (const auto oracle = stod_search_oracle(v)) {
      ASSERT_EQ(text, *oracle) << std::hexfloat << v;
      ++oracle_compared;
    }
  }
  EXPECT_GT(subnormals, 8000);
  EXPECT_GT(oracle_compared, 20000);
}

TEST(JsonFuzz, WriteJsonNumberAppendsDumpBytes) {
  std::string out = "[";
  write_json_number(out, 1000.0);
  EXPECT_EQ(out, "[1e+03");
}

}  // namespace
}  // namespace forktail::util
