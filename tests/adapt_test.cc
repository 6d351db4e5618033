// Property battery for the demand predictor and the adaptive reservation
// policy (src/adapt): exact recovery of linear demand, bounded noise
// amplification, monotone response to the newest sample, bit-identical
// snapshot/restore, and the controller's hold/grow/shrink hysteresis
// contract (no-data holds, cooldown, deadbands, clamps, saturation probe,
// shrink floor).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/adapt/controller.h"
#include "src/adapt/predictor.h"
#include "src/common/rng.h"

namespace tableau::adapt {
namespace {

using Action = AdaptiveController::Action;
using Decision = AdaptiveController::Decision;

TEST(DemandPredictor, RecoversLinearDemandExactly) {
  PredictorConfig config;
  DemandPredictor predictor(config);
  const double a = 0.1;
  const double b = 0.02;
  for (int i = 0; i < config.fit_window; ++i) {
    predictor.Observe(a + b * static_cast<double>(i));
  }
  const DemandPredictor::Prediction prediction = predictor.Predict();
  EXPECT_TRUE(prediction.from_fit);
  // Last sample at abscissa fit_window - 1; extrapolated `horizon` ahead.
  const double expect =
      a + b * static_cast<double>(config.fit_window - 1 + config.horizon);
  EXPECT_NEAR(prediction.demand, expect, 1e-12);
}

TEST(DemandPredictor, RecoversLinearDemandAcrossRingWrap) {
  PredictorConfig config;
  DemandPredictor predictor(config);
  const double a = 0.05;
  const double b = 0.004;
  // 40 > history (32): the ring wraps; the fit must still see the last
  // fit_window samples in order.
  for (int i = 0; i < 40; ++i) {
    predictor.Observe(a + b * static_cast<double>(i));
  }
  const DemandPredictor::Prediction prediction = predictor.Predict();
  EXPECT_TRUE(prediction.from_fit);
  const double expect = a + b * static_cast<double>(39 + config.horizon);
  EXPECT_NEAR(prediction.demand, expect, 1e-12);
}

TEST(DemandPredictor, ColdStartFallsBackToQuantile) {
  DemandPredictor predictor;
  EXPECT_EQ(predictor.Predict().demand, 0.0);
  predictor.Observe(0.3);
  predictor.Observe(0.5);
  const DemandPredictor::Prediction prediction = predictor.Predict();
  EXPECT_FALSE(prediction.from_fit);
  // Nearest-rank p99 of two samples is the max.
  EXPECT_EQ(prediction.demand, 0.5);
}

TEST(DemandPredictor, NoiseErrorIsBoundedByWeightMass) {
  PredictorConfig config;
  const int m = config.fit_window;
  // The prediction is linear in the observations with weights
  //   w_i = 1/m + (x_i - x_mean)(x_pred - x_mean) / Sxx,
  // so |error| <= epsilon * sum_i |w_i| for any noise bounded by epsilon.
  const double x_mean = static_cast<double>(m - 1) / 2.0;
  const double x_pred = static_cast<double>(m - 1 + config.horizon);
  double sxx = 0;
  for (int i = 0; i < m; ++i) {
    const double dx = static_cast<double>(i) - x_mean;
    sxx += dx * dx;
  }
  double weight_mass = 0;
  for (int i = 0; i < m; ++i) {
    const double dx = static_cast<double>(i) - x_mean;
    weight_mass +=
        std::abs(1.0 / static_cast<double>(m) + dx * (x_pred - x_mean) / sxx);
  }

  Rng rng(0xadaf7);
  const double epsilon = 0.02;
  for (int trial = 0; trial < 200; ++trial) {
    DemandPredictor predictor(config);
    const double a = 0.05 + 0.4 * rng.UniformDouble();
    const double b = 0.02 * (rng.UniformDouble() - 0.5);
    for (int i = 0; i < m; ++i) {
      const double noise = epsilon * (2.0 * rng.UniformDouble() - 1.0);
      predictor.Observe(
          std::max(a + b * static_cast<double>(i) + noise, 0.0));
    }
    const double truth = a + b * x_pred;
    const double predicted = predictor.Predict().demand;
    EXPECT_LE(std::abs(predicted - std::max(truth, 0.0)),
              epsilon * weight_mass + 1e-9)
        << "trial " << trial;
  }
}

TEST(DemandPredictor, PredictionIsMonotoneInNewestSample) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 100; ++trial) {
    DemandPredictor low;
    DemandPredictor high;
    const int prefix = 3 + static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < prefix; ++i) {
      const double demand = rng.UniformDouble();
      low.Observe(demand);
      high.Observe(demand);
    }
    const double last = rng.UniformDouble();
    low.Observe(last);
    high.Observe(last + 0.1);
    // The newest sample's fit weight is strictly positive, so raising it
    // must never lower the prediction (a load step is never predicted
    // downward) — and raises it strictly whenever the >= 0 clamp is not
    // pinning both predictions at zero.
    const double low_predicted = low.Predict().demand;
    const double high_predicted = high.Predict().demand;
    EXPECT_GE(high_predicted, low_predicted) << "trial " << trial;
    if (high_predicted > 0.0) {
      EXPECT_GT(high_predicted, low_predicted) << "trial " << trial;
    }
  }
}

TEST(DemandPredictor, StepResponseConvergesUpward) {
  DemandPredictor predictor;
  for (int i = 0; i < 8; ++i) {
    predictor.Observe(0.1);
  }
  const double baseline = predictor.Predict().demand;
  // After the step every prediction stays at or above the old level (the
  // fit may overshoot while the trend is rising, then settle), passes the
  // new level, and converges to it once the fit window is all post-step.
  bool passed_level = false;
  double predicted = baseline;
  for (int i = 0; i < 12; ++i) {
    predictor.Observe(0.8);
    predicted = predictor.Predict().demand;
    EXPECT_GE(predicted, baseline - 1e-12) << "step window " << i;
    passed_level = passed_level || predicted >= 0.8;
  }
  EXPECT_TRUE(passed_level);
  EXPECT_NEAR(predicted, 0.8, 1e-9);
}

TEST(DemandPredictor, QuantileIsNearestRank) {
  DemandPredictor predictor;
  for (const double demand : {0.5, 0.1, 0.3, 0.2, 0.4}) {
    predictor.Observe(demand);
  }
  EXPECT_EQ(predictor.Quantile(0.0), 0.1);   // rank clamps to 1
  EXPECT_EQ(predictor.Quantile(0.2), 0.1);   // ceil(1.0) = 1
  EXPECT_EQ(predictor.Quantile(0.5), 0.3);   // ceil(2.5) = 3
  EXPECT_EQ(predictor.Quantile(0.99), 0.5);  // ceil(4.95) = 5
  EXPECT_EQ(predictor.Quantile(1.0), 0.5);
}

// --- Controller policy ---

VmLimits TestLimits(double min = 1.0 / 32, double max = 1.0) {
  VmLimits limits;
  limits.min_utilization = min;
  limits.max_utilization = max;
  return limits;
}

TEST(AdaptiveController, NoDataWindowHoldsAndPreservesPredictor) {
  AdaptiveController controller;
  controller.BindVm(0, 0.25, TestLimits());
  for (int w = 0; w < 10; ++w) {
    const Decision decision = controller.ObserveWindow(
        0, /*has_data=*/false, /*supply_fraction=*/0.0, /*demand_fraction=*/0.0);
    EXPECT_EQ(decision.action, Action::kHold);
    EXPECT_TRUE(decision.no_data);
  }
  EXPECT_EQ(controller.counters().no_data, 10u);
  EXPECT_EQ(controller.counters().grows, 0u);
  EXPECT_EQ(controller.counters().shrinks, 0u);
  EXPECT_EQ(controller.reservation(0), 0.25);
}

TEST(AdaptiveController, GrowsOnHighDemandQuantizedUp) {
  AdaptiveController controller;
  controller.BindVm(0, 0.125, TestLimits());
  const Decision decision = controller.ObserveWindow(0, true, 0.5, 0.5);
  ASSERT_EQ(decision.action, Action::kGrow);
  // 0.5 * 1.3 headroom = 0.65, quantized up to the 1/32 grid = 21/32.
  EXPECT_NEAR(decision.target, 21.0 / 32, 1e-12);
}

TEST(AdaptiveController, CooldownBlocksConsecutiveResizes) {
  AdaptiveController controller;
  controller.BindVm(0, 0.125, TestLimits());
  const Decision first = controller.ObserveWindow(0, true, 0.5, 0.5);
  ASSERT_EQ(first.action, Action::kGrow);
  controller.CommitResize(0, first.target);
  const int cooldown = controller.config().cooldown_windows;
  for (int w = 0; w < cooldown; ++w) {
    const Decision held = controller.ObserveWindow(0, true, 0.9, 0.9);
    EXPECT_EQ(held.action, Action::kHold) << "cooldown window " << w;
  }
  EXPECT_EQ(controller.counters().cooldown_holds,
            static_cast<std::uint64_t>(cooldown));
  // Cooldown spent: the still-high demand may act again.
  const Decision after = controller.ObserveWindow(0, true, 0.9, 0.9);
  EXPECT_EQ(after.action, Action::kGrow);
}

TEST(AdaptiveController, NoDataWindowsDoNotSpendCooldown) {
  AdaptiveController controller;
  controller.BindVm(0, 0.125, TestLimits());
  controller.CommitResize(0, 0.25);
  for (int w = 0; w < 20; ++w) {
    controller.ObserveWindow(0, false, 0.0, 0.0);
  }
  // Idle windows held without decrementing the cooldown: the first data
  // windows afterwards are still cooldown holds.
  const Decision held = controller.ObserveWindow(0, true, 0.9, 0.9);
  EXPECT_EQ(held.action, Action::kHold);
  EXPECT_GE(controller.counters().cooldown_holds, 1u);
}

TEST(AdaptiveController, RejectAlsoStartsCooldown) {
  AdaptiveController controller;
  controller.BindVm(0, 0.125, TestLimits());
  const Decision first = controller.ObserveWindow(0, true, 0.5, 0.5);
  ASSERT_EQ(first.action, Action::kGrow);
  controller.RejectResize(0);
  EXPECT_EQ(controller.reservation(0), 0.125);  // Unchanged on reject.
  const Decision held = controller.ObserveWindow(0, true, 0.5, 0.5);
  EXPECT_EQ(held.action, Action::kHold);
  EXPECT_EQ(controller.counters().rejects, 1u);
}

TEST(AdaptiveController, DeadbandHoldsNearTheReservation) {
  AdaptiveController controller;
  // Reservation exactly at the quantized target for demand 0.5.
  controller.BindVm(0, 21.0 / 32, TestLimits());
  const Decision decision = controller.ObserveWindow(0, true, 0.5, 0.5);
  EXPECT_EQ(decision.action, Action::kHold);
}

TEST(AdaptiveController, SaturationProbesMultiplicatively) {
  AdaptiveController controller;
  controller.BindVm(0, 0.25, TestLimits());
  // Supply capped at the reservation, demand at the ceiling: the fit only
  // sees 0.25, but the backlog forces a multiplicative probe.
  const Decision decision = controller.ObserveWindow(0, true, 0.25, 1.0);
  EXPECT_TRUE(decision.saturated);
  ASSERT_EQ(decision.action, Action::kGrow);
  EXPECT_GE(decision.target,
            0.25 * controller.config().saturation_growth - 1e-12);
}

TEST(AdaptiveController, TargetsClampToVmLimits) {
  AdaptiveController controller;
  controller.BindVm(0, 0.125, TestLimits(1.0 / 32, 0.25));
  const Decision grow = controller.ObserveWindow(0, true, 0.9, 0.9);
  ASSERT_EQ(grow.action, Action::kGrow);
  EXPECT_EQ(grow.target, 0.25);  // Capped at max_utilization.

  controller.BindVm(1, 0.5, TestLimits(0.25, 1.0));
  // Demand collapses to ~0: the shrink floors at min_utilization. The
  // predictor needs the ring full of small samples before the p99 floor
  // lets go of the start-up demand.
  Decision shrink;
  for (int w = 0; w < 40; ++w) {
    shrink = controller.ObserveWindow(1, true, 0.01, 0.01);
  }
  ASSERT_EQ(shrink.action, Action::kShrink);
  EXPECT_EQ(shrink.target, 0.25);  // Clamped at min_utilization.
}

TEST(AdaptiveController, NeverShrinksBelowObservedHighQuantile) {
  AdaptiveController controller;
  controller.BindVm(0, 0.75, TestLimits());
  // Mostly-low demand with a recurring 0.4 burst every 10th window. Once a
  // burst is in the retained ring (history 32 > burst spacing), the p99
  // floor holds 0.4, so no later shrink may go below it.
  Rng rng(0xf100d);
  for (int w = 0; w < 100; ++w) {
    const double demand = (w % 10 == 9) ? 0.4 : 0.05 * rng.UniformDouble();
    const Decision decision = controller.ObserveWindow(0, true, demand, demand);
    if (decision.action == Action::kHold) {
      continue;
    }
    if (decision.action == Action::kShrink && w >= 10) {
      EXPECT_GE(decision.target, 0.4 - 1e-12) << "window " << w;
    }
    controller.CommitResize(0, decision.target);
  }
  // The loop settled onto the burst level, not the low-demand trough.
  EXPECT_GE(controller.reservation(0), 0.4 - 1e-12);
  EXPECT_GE(controller.counters().commits, 1u);
}

}  // namespace
}  // namespace tableau::adapt
