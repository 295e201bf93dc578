// Spearman's rank correlation in O(n).
//
// Both samples are ranked by the stable radix argsort (radix_argsort.hpp),
// and tied values take their mid-rank.  The correlation is
// Pearson's on the ranks, accumulated in input order; wherever a sample has
// no exact ties its ranks are the positions any correct sort gives, so the
// result does not depend on the sort.
#pragma once

#include <span>

namespace forktail::stats {

/// Spearman's rho of two equally long samples: the Pearson correlation of
/// their mid-ranks.  A value's rank is its 0-based position in ascending
/// order, and a run of equal values shares the mean of its positions (so
/// {1, 2, 2, 3} ranks {0, 1.5, 1.5, 3}); -0.0 ties with +0.0.  A sample
/// whose values are all equal has no rank variance: two such samples have
/// identical ranks and give 1, one against a varying sample gives 0.
/// Throws std::invalid_argument on unequal lengths, fewer than two or more
/// than 2^31 values, or a NaN.
double spearman(std::span<const double> a, std::span<const double> b);

}  // namespace forktail::stats
