#include "src/adapt/predictor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace tableau::adapt {

DemandPredictor::DemandPredictor(PredictorConfig config) : config_(config) {
  TABLEAU_CHECK(config_.history >= 1);
  TABLEAU_CHECK(config_.fit_window >= 2);
  TABLEAU_CHECK(config_.horizon >= 0);
  TABLEAU_CHECK(config_.quantile >= 0 && config_.quantile <= 1);
  ring_.resize(static_cast<std::size_t>(config_.history), 0.0);
}

void DemandPredictor::Observe(double demand) {
  ring_[static_cast<std::size_t>(next_)] = demand < 0 ? 0.0 : demand;
  next_ = (next_ + 1) % config_.history;
  count_ = std::min(count_ + 1, config_.history);
}

DemandPredictor::Prediction DemandPredictor::Predict() const {
  Prediction prediction;
  const int m = std::min({count_, config_.fit_window, config_.history});
  if (m < 3) {
    // Too little evidence for a trend; track the high quantile instead so
    // cold-start predictions err toward the demand already seen.
    prediction.demand = Quantile(config_.quantile);
    return prediction;
  }
  // Least squares over the last m samples at abscissas 0..m-1 (newest at
  // m-1), extrapolated to x = m - 1 + horizon. Closed form:
  //   slope = Sxy / Sxx, intercept = y_mean - slope * x_mean.
  // Sxx depends only on m, so it is exact and never zero for m >= 2.
  const double x_mean = static_cast<double>(m - 1) / 2.0;
  double y_mean = 0;
  for (int i = 0; i < m; ++i) {
    // Sample i (0 = oldest of the fit window) lives m - i steps behind next_.
    const int slot = (next_ - m + i + 2 * config_.history) % config_.history;
    y_mean += ring_[static_cast<std::size_t>(slot)];
  }
  y_mean /= static_cast<double>(m);
  double sxx = 0;
  double sxy = 0;
  for (int i = 0; i < m; ++i) {
    const int slot = (next_ - m + i + 2 * config_.history) % config_.history;
    const double dx = static_cast<double>(i) - x_mean;
    sxx += dx * dx;
    sxy += dx * (ring_[static_cast<std::size_t>(slot)] - y_mean);
  }
  const double slope = sxy / sxx;
  const double x_pred = static_cast<double>(m - 1 + config_.horizon);
  prediction.demand = y_mean + slope * (x_pred - x_mean);
  prediction.from_fit = true;
  if (prediction.demand < 0) {
    prediction.demand = 0;
  }
  return prediction;
}

double DemandPredictor::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  std::vector<double> sorted;
  sorted.reserve(static_cast<std::size_t>(count_));
  for (int i = 0; i < count_; ++i) {
    const int slot = (next_ - count_ + i + 2 * config_.history) % config_.history;
    sorted.push_back(ring_[static_cast<std::size_t>(slot)]);
  }
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest value with at least q * count samples at or
  // below it.
  int rank = static_cast<int>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp(rank, 1, count_);
  return sorted[static_cast<std::size_t>(rank - 1)];
}

}  // namespace tableau::adapt
