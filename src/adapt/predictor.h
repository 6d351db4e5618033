// Per-VM demand prediction for closed-loop reservation control: an
// LLSP-style least-squares linear fit over the most recent windowed demand
// observations (atlas-rt's execution-time predictor is the exemplar the
// ROADMAP names), extrapolated a configurable horizon of windows ahead,
// with a quantile-tracking fallback for the cold-start and degenerate
// cases where a line fit is meaningless.
//
// The predictor is deterministic: observations live in a fixed ring sized
// by PredictorConfig::history and the fit is closed-form (no iteration, no
// epsilon-dependent convergence), so fleet runs stay fingerprint-stable
// across execution modes.
//
// Why a line fit is enough: the prediction is linear in the observations
// (weight of sample i is 1/m + (x_i - x_mean)(x_pred - x_mean)/Sxx), the
// newest sample's weight is strictly positive (monotone response to load
// steps), and the absolute weights sum to a small constant (bounded noise
// amplification) — the three properties the unit battery checks.
#ifndef SRC_ADAPT_PREDICTOR_H_
#define SRC_ADAPT_PREDICTOR_H_

#include <cstdint>
#include <vector>

namespace tableau::adapt {

struct PredictorConfig {
  // Observations retained for quantile tracking (the ring size).
  int history = 32;
  // Most recent observations entering the least-squares fit. Smaller =
  // faster tracking of trend changes; larger = smoother under noise.
  int fit_window = 12;
  // Windows ahead the fit is extrapolated (covers the actuation delay:
  // decision at this barrier, table live roughly two rounds later).
  int horizon = 2;
  // Fallback quantile used before the fit has enough samples (< 3) or when
  // the fit abscissas are degenerate.
  double quantile = 0.99;
};

class DemandPredictor {
 public:
  struct Prediction {
    double demand = 0;
    // True when the least-squares fit produced the value; false when the
    // quantile fallback did (cold start or degenerate fit).
    bool from_fit = false;
  };

  DemandPredictor() : DemandPredictor(PredictorConfig{}) {}
  explicit DemandPredictor(PredictorConfig config);

  const PredictorConfig& config() const { return config_; }
  int samples() const { return count_; }

  // Records one window's observed demand (a utilization fraction; any
  // non-negative unit works — the predictor is unit-agnostic).
  void Observe(double demand);

  // Demand `config.horizon` windows ahead, clamped to >= 0.
  Prediction Predict() const;

  // Empirical quantile over the retained ring (nearest-rank, q in [0, 1]).
  // 0 before the first observation.
  double Quantile(double q) const;

 private:
  PredictorConfig config_;
  std::vector<double> ring_;
  int next_ = 0;   // Ring slot the next observation lands in.
  int count_ = 0;  // Observations retained, <= config_.history.
};

}  // namespace tableau::adapt

#endif  // SRC_ADAPT_PREDICTOR_H_
