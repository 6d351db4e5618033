#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/dispatcher.h"
#include "src/table/scheduling_table.h"

namespace tableau {
namespace {

std::shared_ptr<const SchedulingTable> MakeTable(
    TimeNs length, std::vector<std::vector<Allocation>> per_cpu) {
  return std::make_shared<SchedulingTable>(
      SchedulingTable::Build(length, std::move(per_cpu)));
}

TableauDispatcher::Config WorkConserving() {
  TableauDispatcher::Config config;
  config.work_conserving = true;
  return config;
}

TEST(Dispatcher, FirstInstallTakesEffectImmediately) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{7, 0, 500}}}), /*now=*/0);
  const auto slot = dispatcher.LookupSlot(0, 100);
  EXPECT_EQ(slot.vcpu, 7);
  EXPECT_EQ(slot.slot_end, 500);
}

TEST(Dispatcher, LookupSlotAbsoluteTimesWrapModuloLength) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{7, 0, 500}}}), 0);
  // Third cycle, offset 100.
  const auto slot = dispatcher.LookupSlot(0, 2100);
  EXPECT_EQ(slot.vcpu, 7);
  EXPECT_EQ(slot.slot_end, 2500);
  // Idle part of the cycle.
  const auto idle = dispatcher.LookupSlot(0, 2600);
  EXPECT_EQ(idle.vcpu, kIdleVcpu);
  EXPECT_EQ(idle.slot_end, 3000);
}

TEST(Dispatcher, TableSwitchIsDeferredToSecondWrap) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  // Push a new table mid-cycle at t=300: next_table is timed for the middle
  // of the next round, so the switch lands at the wrap after that (t=2000).
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 500).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 1999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlotEndClampedToPendingSwitch) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 1500);
  // Switch at wrap after middle of next round: (1500/1000+2)*1000 = 3000.
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  const auto slot = dispatcher.LookupSlot(0, 2500);
  EXPECT_EQ(slot.vcpu, 1);
  EXPECT_EQ(slot.slot_end, 3000);
}

TEST(Dispatcher, AllCoresSwitchAtTheSameBoundary) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}, {{2, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}, {{4, 0, 1000}}}), 100);
  // Both cores still see the old table right before the boundary...
  EXPECT_EQ(dispatcher.LookupSlot(0, 1999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(1, 1999).vcpu, 2);
  // ...and the new one right at it.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 3);
  EXPECT_EQ(dispatcher.LookupSlot(1, 2000).vcpu, 4);
}

// Re-install while a switch is pending: the latest table wins, and the
// promised switch time never moves earlier (cores were already handed
// slot_ends clamped to it).
TEST(Dispatcher, ReinstallDuringPendingSwitchKeepsLaterWrap) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 1500);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // Second install observed from a lagging clock: its recomputed wrap (2000)
  // is earlier than the promised 3000 and must not win.
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 900);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // The old table stays in effect until the promised boundary...
  EXPECT_EQ(dispatcher.LookupSlot(0, 2999).vcpu, 1);
  // ...and the switch lands on the *latest* installed table, not the dropped
  // intermediate one.
  EXPECT_EQ(dispatcher.LookupSlot(0, 3000).vcpu, 3);
}

TEST(Dispatcher, ReinstallDuringPendingSwitchMovesLaterWhenTimeAdvanced) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  // A later re-install whose wrap computes past the promise pushes it out.
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 2100);
  EXPECT_EQ(dispatcher.pending_switch_time(), 4000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 3999).vcpu, 1);
  EXPECT_EQ(dispatcher.LookupSlot(0, 4000).vcpu, 3);
}

TEST(Dispatcher, ReinstallAtSameRoundReplacesTableKeepsTime) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  dispatcher.InstallTable(MakeTable(1000, {{{3, 0, 1000}}}), 600);
  // Same round, same wrap: promise unchanged, latest table wins.
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  const auto slot = dispatcher.LookupSlot(0, 1500);
  EXPECT_EQ(slot.vcpu, 1);
  EXPECT_EQ(slot.slot_end, 2000);  // Still clamped to the promise.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2000).vcpu, 3);
}

TEST(Dispatcher, WakeupTargetCurrentAllocation) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}}, {{1, 500, 800}, {2, 800, 1000}}}), 0);
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 100), 0);   // In cpu0 allocation.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 600), 1);   // In cpu1 allocation.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(2, 900), 1);
  EXPECT_EQ(dispatcher.WakeupTargetCpu(99, 0), -1);   // Unknown vCPU.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(0, 0), -1);    // Below a known id.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(kIdleVcpu, 0), -1);
}

TEST(Dispatcher, WakeupTargetFallsBackToLastAllocation) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 100, 200}}, {{2, 0, 50}}}), 0);
  // t=500: vCPU 1 has no current allocation; last one was on cpu 0.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 500), 0);
  // t=60 for vCPU 2: last allocation (cyclically) ended at 50 on cpu 1.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(2, 60), 1);
  // Before vCPU 1's first allocation: wraps to the previous cycle's last.
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 50), 0);
}

TEST(Dispatcher, InOwnSlot) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{5, 200, 600}}}), 0);
  EXPECT_FALSE(dispatcher.InOwnSlot(5, 0, 100));
  EXPECT_TRUE(dispatcher.InOwnSlot(5, 0, 300));
  EXPECT_FALSE(dispatcher.InOwnSlot(5, 0, 700));
}

TEST(Dispatcher, IsSplitDetection) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}, {2, 500, 900}}, {{1, 500, 800}}}), 0);
  EXPECT_TRUE(dispatcher.IsSplit(1));
  EXPECT_FALSE(dispatcher.IsSplit(2));
  EXPECT_FALSE(dispatcher.IsSplit(99));
  EXPECT_FALSE(dispatcher.IsSplit(0));
  EXPECT_FALSE(dispatcher.IsSplit(kIdleVcpu));
}

TEST(Dispatcher, SecondLevelPicksOnlyEligibleLocals) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}, {2, 300, 600}}}), 0);
  // Only vCPU 2 eligible.
  const auto pick = dispatcher.PickSecondLevel(
      0, 700, 1000, [](VcpuId id) { return id == 2; });
  EXPECT_EQ(pick.vcpu, 2);
  EXPECT_GT(pick.until, 700);
  EXPECT_LE(pick.until, 1000);
}

TEST(Dispatcher, SecondLevelIdleWhenNoneEligible) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}}}), 0);
  const auto pick =
      dispatcher.PickSecondLevel(0, 700, 1000, [](VcpuId) { return false; });
  EXPECT_EQ(pick.vcpu, kIdleVcpu);
  EXPECT_EQ(pick.until, 1000);
}

TEST(Dispatcher, SecondLevelDisabledWhenNotWorkConserving) {
  TableauDispatcher::Config config;
  config.work_conserving = false;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 300}}}), 0);
  const auto pick =
      dispatcher.PickSecondLevel(0, 700, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, kIdleVcpu);
}

TEST(Dispatcher, SecondLevelExcludesSplitVcpus) {
  // Mirrors the paper's prototype: split vCPUs do not take part in
  // second-level scheduling.
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}, {2, 500, 600}}, {{1, 500, 800}}}), 0);
  const auto pick = dispatcher.PickSecondLevel(
      0, 700, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, 2);  // Never split vCPU 1.
}

TEST(Dispatcher, SecondLevelEpochFairShare) {
  // Two eligible locals: budgets replenish to epoch/2 and alternate by
  // highest-remaining-budget as budget is accrued.
  TableauDispatcher::Config config;
  config.work_conserving = true;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(
      MakeTable(100 * kMillisecond,
                {{{1, 0, kMillisecond}, {2, kMillisecond, 2 * kMillisecond}}}),
      0);
  auto all = [](VcpuId) { return true; };

  const TimeNs now = 50 * kMillisecond;
  const auto first = dispatcher.PickSecondLevel(0, now, 100 * kMillisecond, all);
  ASSERT_NE(first.vcpu, kIdleVcpu);
  // Replenished to 5 ms each; grant capped at remaining budget.
  EXPECT_EQ(first.until, now + 5 * kMillisecond);

  // Burn 5 ms of the first pick's budget: the other vCPU must be next.
  dispatcher.AccrueSecondLevel(0, first.vcpu, 5 * kMillisecond);
  const auto second =
      dispatcher.PickSecondLevel(0, first.until, 100 * kMillisecond, all);
  ASSERT_NE(second.vcpu, kIdleVcpu);
  EXPECT_NE(second.vcpu, first.vcpu);

  // Burn the second budget too: both at zero triggers a fresh replenish.
  dispatcher.AccrueSecondLevel(0, second.vcpu, 5 * kMillisecond);
  const auto third =
      dispatcher.PickSecondLevel(0, second.until, 100 * kMillisecond, all);
  EXPECT_NE(third.vcpu, kIdleVcpu);
}

TEST(Dispatcher, SecondLevelGrantFlooredAtMinGrant) {
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(100 * kMillisecond, {{{1, 0, kMillisecond}}}), 0);
  auto all = [](VcpuId) { return true; };
  const auto first = dispatcher.PickSecondLevel(0, 0, 100 * kMillisecond, all);
  // Leave 1 ns of budget.
  dispatcher.AccrueSecondLevel(0, first.vcpu, 10 * kMillisecond - 1);
  const auto tiny = dispatcher.PickSecondLevel(0, 5, 100 * kMillisecond, all);
  EXPECT_EQ(tiny.vcpu, first.vcpu);
  EXPECT_GE(tiny.until - 5, kMinGrantNs);
}

TEST(Dispatcher, TrailingCorePolicyForSplitVcpus) {
  // With split_participation enabled, a split vCPU takes part in
  // second-level scheduling only on the core of its most recent allocation.
  TableauDispatcher::Config config;
  config.work_conserving = true;
  config.split_participation = true;
  TableauDispatcher dispatcher(2, config);
  // vCPU 1 split: cpu0 [0,400), cpu1 [500,800).
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 400}}, {{1, 500, 800}}}), 0);
  ASSERT_TRUE(dispatcher.IsSplit(1));
  // At t=450 the last allocation was on cpu 0.
  EXPECT_TRUE(dispatcher.SecondLevelLocal(1, 0, 450));
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 1, 450));
  // At t=900 the last allocation was on cpu 1.
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 0, 900));
  EXPECT_TRUE(dispatcher.SecondLevelLocal(1, 1, 900));
  // And it is actually picked on its trailing core.
  const auto pick =
      dispatcher.PickSecondLevel(1, 900, 1000, [](VcpuId) { return true; });
  EXPECT_EQ(pick.vcpu, 1);
}

TEST(Dispatcher, SplitParticipationOffMatchesPrototype) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 400}}, {{1, 500, 800}}}), 0);
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 0, 450));
  EXPECT_FALSE(dispatcher.SecondLevelLocal(1, 1, 900));
  // Non-split vCPUs are always local.
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 400}}, {}}), 0);
  EXPECT_TRUE(dispatcher.SecondLevelLocal(2, 0, 450));
}

TEST(Dispatcher, LateSwitchPromotesImmediatelyByDefault) {
  // Default (kTimeNever tolerance): however late the first lookup after the
  // promised boundary arrives, the pending table promotes right away — the
  // pre-degradation behavior the goldens pin down.
  TableauDispatcher dispatcher(1, WorkConserving());
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  EXPECT_EQ(dispatcher.LookupSlot(0, 9700).vcpu, 2);  // 7.7 rounds late.
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlipToleranceReArmsMissedSwitchAtNextWrap) {
  TableauDispatcher::Config config = WorkConserving();
  config.switch_slip_tolerance = 100;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  EXPECT_EQ(dispatcher.pending_switch_time(), 2000);
  // First lookup observes the switch 500 > 100 late: the old table stays in
  // effect and the switch re-arms at the next wrap of the current table.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2500).vcpu, 1);
  EXPECT_EQ(dispatcher.pending_switch_time(), 3000);
  // On time at the re-armed boundary: the new table takes over.
  EXPECT_EQ(dispatcher.LookupSlot(0, 3000).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, SlipWithinToleranceStillPromotes) {
  TableauDispatcher::Config config = WorkConserving();
  config.switch_slip_tolerance = 100;
  TableauDispatcher dispatcher(1, config);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 1000}}}), 0);
  dispatcher.InstallTable(MakeTable(1000, {{{2, 0, 1000}}}), 300);
  // 50 ns late is within tolerance: promote as usual.
  EXPECT_EQ(dispatcher.LookupSlot(0, 2050).vcpu, 2);
  EXPECT_EQ(dispatcher.pending_switch_time(), kTimeNever);
}

TEST(Dispatcher, TimelinesRebuiltAfterSwitch) {
  TableauDispatcher dispatcher(2, WorkConserving());
  dispatcher.InstallTable(
      MakeTable(1000, {{{1, 0, 500}}, {{1, 500, 800}, {3, 800, 900}}}), 0);  // Split.
  EXPECT_TRUE(dispatcher.IsSplit(1));
  EXPECT_EQ(dispatcher.WakeupTargetCpu(3, 100), 1);
  dispatcher.InstallTable(MakeTable(1000, {{{1, 0, 500}}, {}}), 100);
  // After the switch boundary, vCPU 1 is no longer split and vCPU 3 is gone.
  dispatcher.ActiveTable(2000);
  EXPECT_FALSE(dispatcher.IsSplit(1));
  EXPECT_EQ(dispatcher.WakeupTargetCpu(1, 2600), 0);
  EXPECT_EQ(dispatcher.WakeupTargetCpu(3, 2600), -1);
}

}  // namespace
}  // namespace tableau
