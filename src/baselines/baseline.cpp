#include "baselines/baseline.hpp"

#include <utility>

#include "baselines/direct.hpp"
#include "baselines/eat.hpp"
#include "baselines/expfit.hpp"
#include "baselines/linear_bounds.hpp"
#include "stats/percentile.hpp"

namespace forktail::baselines {

namespace {

/// Direct measurement: the percentile of the measured responses, with the
/// distribution-free order-statistics CI as an (uncertified, ~95%
/// confidence) bracket.
class DirectBaseline final : public Baseline {
 public:
  std::string name() const override { return "direct"; }

  bool applicable(const BaselineInput& in) const override {
    return !in.responses.empty();
  }

  double predict(const BaselineInput& in, double percentile) const override {
    return stats::percentile(in.responses, percentile);
  }

  Bracket bracket(const BaselineInput& in, double percentile) const override {
    const PercentileCi ci = direct_percentile_ci(in.responses, percentile);
    if (!ci.valid) {
      return Bracket{ci.point, ci.point, false};
    }
    return Bracket{ci.lo, ci.hi, false};
  }
};

/// Plain-exponential fit (HotCloud'16): mean-only task model.
class ExpFitBaseline final : public Baseline {
 public:
  std::string name() const override { return "expfit"; }

  bool applicable(const BaselineInput& in) const override {
    return in.task_stats.mean > 0.0;
  }

  double predict(const BaselineInput& in, double percentile) const override {
    return exponential_fit_quantile(in.task_stats, in.mean_fanout, percentile);
  }
};

/// EAT (Qiu, Pérez & Harrison): exact M/PH/1 marginal + copula max.  Needs
/// the k = N homogeneous structure, single-server FIFO nodes, and a
/// service with an LST.
class EatBaseline final : public Baseline {
 public:
  std::string name() const override { return "eat"; }

  bool applicable(const BaselineInput& in) const override {
    return in.homogeneous_topology && in.single_server_fifo &&
           in.service != nullptr && in.service->has_lst();
  }

  double predict(const BaselineInput& in, double percentile) const override {
    return EatPredictor(in.lambda, in.service, in.cluster_nodes)
        .quantile(percentile);
  }

  // The constructor's calibration is nearly all of EAT's cost and does not
  // depend on the percentile: build it once.
  std::vector<double> predict_many(
      const BaselineInput& in,
      std::span<const double> percentiles) const override {
    const EatPredictor eat(in.lambda, in.service, in.cluster_nodes);
    std::vector<double> out;
    out.reserve(percentiles.size());
    for (const double p : percentiles) out.push_back(eat.quantile(p));
    return out;
  }
};

}  // namespace

BaselineRegistry::BaselineRegistry() {
  baselines_.push_back(std::make_unique<DirectBaseline>());
  baselines_.push_back(std::make_unique<ExpFitBaseline>());
  baselines_.push_back(std::make_unique<EatBaseline>());
  baselines_.push_back(std::make_unique<LinearBoundsBaseline>());
}

BaselineRegistry& BaselineRegistry::global() {
  static BaselineRegistry* registry = new BaselineRegistry;
  return *registry;
}

const Baseline* BaselineRegistry::find(const std::string& name) const {
  for (const auto& b : baselines_) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

}  // namespace forktail::baselines
