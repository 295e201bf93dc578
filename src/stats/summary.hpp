// The paper's prediction-error metric, shared by the benches, the scenario
// runner and the examples.
#pragma once

namespace forktail::stats {

/// Relative error in percent, as defined in Section 4 of the paper:
/// 100 * (predicted - measured) / measured.
double relative_error_pct(double predicted, double measured);

}  // namespace forktail::stats
