#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace forktail::stats {
namespace {

TEST(RelativeError, MatchesPaperDefinition) {
  // error = 100 (tp - tm)/tm.
  EXPECT_DOUBLE_EQ(relative_error_pct(120.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(relative_error_pct(80.0, 100.0), -20.0);
  EXPECT_THROW(relative_error_pct(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace forktail::stats
