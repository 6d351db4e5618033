#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/hypervisor/machine.h"
#include "src/hypervisor/scheduler.h"

namespace tableau {
namespace {

// Minimal FIFO round-robin scheduler used to exercise the machine mechanics.
class FifoScheduler : public VcpuScheduler {
 public:
  explicit FifoScheduler(TimeNs slice = 10 * kMillisecond) : slice_(slice) {}

  std::string Name() const override { return "fifo-test"; }

  void AddVcpu(Vcpu* vcpu) override { (void)vcpu; }

  Decision PickNext(CpuId cpu) override {
    (void)cpu;
    machine_->AddOpCost(pick_cost_);
    Decision decision;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Vcpu* vcpu = queue_.front();
      queue_.pop_front();
      if (vcpu->runnable() && vcpu->running_on() == kNoCpu) {
        decision.vcpu = vcpu->id();
        decision.until = machine_->Now() + slice_;
        return decision;
      }
      queue_.push_back(vcpu);
    }
    decision.vcpu = kIdleVcpu;
    decision.until = kTimeNever;
    return decision;
  }

  void OnWakeup(Vcpu* vcpu) override {
    queue_.push_back(vcpu);
    // Kick the vCPU's last CPU (or CPU 0) if idle.
    const CpuId target = vcpu->last_cpu() == kNoCpu ? 0 : vcpu->last_cpu();
    if (machine_->RunningOn(target) == nullptr) {
      machine_->KickCpu(target, /*remote=*/true);
    }
  }

  void OnBlock(Vcpu* vcpu, CpuId cpu) override {
    (void)vcpu;
    (void)cpu;
  }

  void OnDeschedule(Vcpu* vcpu, CpuId cpu, DeschedReason reason) override {
    (void)cpu;
    (void)reason;
    queue_.push_back(vcpu);
  }

  void OnServiceAccrued(Vcpu* vcpu, CpuId cpu, TimeNs amount) override {
    (void)vcpu;
    (void)cpu;
    accrued_ += amount;
  }

  void set_pick_cost(TimeNs cost) { pick_cost_ = cost; }
  TimeNs accrued() const { return accrued_; }

 private:
  TimeNs slice_;
  TimeNs pick_cost_ = 0;
  TimeNs accrued_ = 0;
  std::deque<Vcpu*> queue_;
};

struct Fixture {
  explicit Fixture(int cpus = 1, TimeNs slice = 10 * kMillisecond) {
    MachineConfig config;
    config.num_cpus = cpus;
    config.cores_per_socket = cpus;
    config.costs = OverheadCosts{};
    auto sched = std::make_unique<FifoScheduler>(slice);
    scheduler = sched.get();
    machine = std::make_unique<Machine>(config, std::move(sched));
  }
  std::unique_ptr<Machine> machine;
  FifoScheduler* scheduler;
};

TEST(Machine, CpuBoundVcpuGetsWholeCpu) {
  Fixture f;
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(vcpu, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] { f.machine->Wake(vcpu->id()); });
  f.machine->Start();
  f.machine->RunFor(kSecond);
  // Service is wall time minus dispatch overheads (context switch etc).
  EXPECT_GT(vcpu->total_service(), 990 * kMillisecond);
  EXPECT_LE(vcpu->total_service(), kSecond);
}

TEST(Machine, BurstCompletionInvokesHandlerAndBlocks) {
  Fixture f;
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  int completions = 0;
  vcpu->on_burst_complete = [&] {
    ++completions;
    f.machine->Block(vcpu);
  };
  f.machine->SetBurst(vcpu, 5 * kMillisecond);
  f.machine->sim().ScheduleAt(0, [&] { f.machine->Wake(vcpu->id()); });
  f.machine->Start();
  f.machine->RunFor(100 * kMillisecond);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(vcpu->state(), VcpuState::kBlocked);
  EXPECT_EQ(vcpu->total_service(), 5 * kMillisecond);
}

TEST(Machine, WakeOnRunnableVcpuIsNoOp) {
  Fixture f;
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(vcpu, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] {
    f.machine->Wake(vcpu->id());
    f.machine->Wake(vcpu->id());  // Duplicate.
  });
  f.machine->Start();
  f.machine->RunFor(10 * kMillisecond);
  EXPECT_EQ(
      f.machine->metrics().Snapshot().values.at(SchedOpMetric(SchedOp::kWakeup)).hist.count,
      1u);
}

TEST(Machine, TwoVcpusShareCpuRoundRobin) {
  Fixture f(/*cpus=*/1, /*slice=*/5 * kMillisecond);
  Vcpu* a = f.machine->AddVcpu(VcpuParams{});
  Vcpu* b = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(a, kTimeNever);
  f.machine->SetBurst(b, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] {
    f.machine->Wake(a->id());
    f.machine->Wake(b->id());
  });
  f.machine->Start();
  f.machine->RunFor(kSecond);
  // Fair to within a slice.
  EXPECT_NEAR(static_cast<double>(a->total_service()),
              static_cast<double>(b->total_service()), 6 * kMillisecond);
  EXPECT_GT(f.machine->context_switches(), 150u);
}

TEST(Machine, ServiceConservation) {
  // busy + overhead <= wall time per cpu; busy sums match vcpu service.
  Fixture f(/*cpus=*/2, /*slice=*/kMillisecond);
  std::vector<Vcpu*> vcpus;
  for (int i = 0; i < 4; ++i) {
    vcpus.push_back(f.machine->AddVcpu(VcpuParams{}));
    f.machine->SetBurst(vcpus.back(), kTimeNever);
  }
  f.machine->sim().ScheduleAt(0, [&] {
    for (Vcpu* vcpu : vcpus) {
      f.machine->Wake(vcpu->id());
    }
  });
  f.machine->Start();
  f.machine->RunFor(kSecond);
  TimeNs busy_total = 0;
  for (int cpu = 0; cpu < 2; ++cpu) {
    EXPECT_LE(f.machine->cpu_busy_ns(cpu) + f.machine->cpu_overhead_ns(cpu),
              kSecond + kMillisecond);
    busy_total += f.machine->cpu_busy_ns(cpu);
  }
  TimeNs service_total = 0;
  for (Vcpu* vcpu : vcpus) {
    service_total += vcpu->total_service();
  }
  EXPECT_EQ(busy_total, service_total);
}

TEST(Machine, OverheadDelaysServiceStart) {
  Fixture low;
  Vcpu* a = low.machine->AddVcpu(VcpuParams{});
  low.machine->SetBurst(a, kTimeNever);
  low.machine->sim().ScheduleAt(0, [&] { low.machine->Wake(a->id()); });
  low.machine->Start();
  low.machine->RunFor(kSecond);

  Fixture high;
  high.scheduler->set_pick_cost(100 * kMicrosecond);
  Vcpu* b = high.machine->AddVcpu(VcpuParams{});
  high.machine->SetBurst(b, kTimeNever);
  high.machine->sim().ScheduleAt(0, [&] { high.machine->Wake(b->id()); });
  high.machine->Start();
  high.machine->RunFor(kSecond);

  EXPECT_GT(a->total_service(), b->total_service());
}

TEST(Machine, OpCostsRecordedAsTracepoints) {
  Fixture f;
  f.scheduler->set_pick_cost(2 * kMicrosecond);
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(vcpu, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] { f.machine->Wake(vcpu->id()); });
  f.machine->Start();
  f.machine->RunFor(100 * kMillisecond);
  const obs::HistogramValue schedule =
      f.machine->metrics().Snapshot().values.at(SchedOpMetric(SchedOp::kSchedule)).hist;
  EXPECT_GT(schedule.count, 5u);
  // Every schedule op includes the fixed entry cost plus the pick cost.
  EXPECT_GE(schedule.min, 2 * kMicrosecond + OverheadCosts{}.sched_entry);
}

TEST(Machine, WallClockAccrualIncludesOverheadWindow) {
  // Scheduler accounting must burn assigned wall time even when overhead
  // swallows the whole slice (the anti-livelock property).
  Fixture f(/*cpus=*/1, /*slice=*/kMillisecond);
  f.scheduler->set_pick_cost(50 * kMicrosecond);
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(vcpu, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] { f.machine->Wake(vcpu->id()); });
  f.machine->Start();
  f.machine->RunFor(kSecond);
  // Accrued wall time ~= 1s, strictly more than pure guest service.
  EXPECT_GT(f.scheduler->accrued(), 990 * kMillisecond);
  EXPECT_GT(f.scheduler->accrued(), vcpu->total_service());
}

TEST(Machine, InstrumentedWakeupLatency) {
  Fixture f;
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  vcpu->EnableInstrumentation();
  int wakes = 0;
  vcpu->on_burst_complete = [&] { f.machine->Block(vcpu); };
  std::function<void()> waker = [&] {
    if (++wakes > 10) {
      return;
    }
    f.machine->SetBurst(vcpu, 100 * kMicrosecond);
    f.machine->Wake(vcpu->id());
    f.machine->sim().ScheduleAfter(10 * kMillisecond, waker);
  };
  f.machine->sim().ScheduleAt(0, waker);
  f.machine->Start();
  f.machine->RunFor(kSecond);
  EXPECT_EQ(vcpu->wakeup_latency().Count(), 10u);
  // Idle machine: latency is dominated by IPI delivery + context switch.
  EXPECT_LT(vcpu->wakeup_latency().Max(), 100 * kMicrosecond);
}

TEST(Machine, SocketTopology) {
  MachineConfig config;
  config.num_cpus = 16;
  config.cores_per_socket = 8;
  Machine machine(config, std::make_unique<FifoScheduler>());
  EXPECT_EQ(machine.SocketOf(0), 0);
  EXPECT_EQ(machine.SocketOf(7), 0);
  EXPECT_EQ(machine.SocketOf(8), 1);
  EXPECT_EQ(machine.SocketOf(15), 1);
}

TEST(Machine, ContextSwitchOnlyOnVcpuChange) {
  // One CPU-bound vCPU alone: after the initial dispatch, re-picks of the
  // same vCPU at slice ends must not count as context switches.
  Fixture f(/*cpus=*/1, /*slice=*/kMillisecond);
  Vcpu* vcpu = f.machine->AddVcpu(VcpuParams{});
  f.machine->SetBurst(vcpu, kTimeNever);
  f.machine->sim().ScheduleAt(0, [&] { f.machine->Wake(vcpu->id()); });
  f.machine->Start();
  f.machine->RunFor(kSecond);
  EXPECT_EQ(f.machine->context_switches(), 1u);
  EXPECT_GT(f.machine->schedule_invocations(), 900u);
}

}  // namespace
}  // namespace tableau
