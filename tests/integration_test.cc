// End-to-end scenario tests: the paper's high-density configuration
// (4 single-vCPU VMs per core) under all four schedulers, capped and
// uncapped, with the paper's workloads driving real scheduler decisions.
#include <gtest/gtest.h>

#include <memory>

#include "src/harness/scenario.h"
#include "src/workloads/guest.h"
#include "src/workloads/ping.h"
#include "src/workloads/stress.h"
#include "src/workloads/web.h"

namespace tableau {
namespace {

// Small machine (4 guest cores, 16 VMs) to keep tests fast.
ScenarioConfig SmallConfig(SchedKind kind, bool capped) {
  ScenarioConfig config;
  config.scheduler = kind;
  config.guest_cpus = 4;
  config.cores_per_socket = 2;
  config.capped = capped;
  return config;
}

void AttachStress(Scenario& scenario, std::vector<std::unique_ptr<StressIoWorkload>>& out,
                  std::size_t first_vcpu) {
  for (std::size_t i = first_vcpu; i < scenario.vcpus.size(); ++i) {
    StressIoWorkload::Config config;
    config.seed = i + 1;
    out.push_back(std::make_unique<StressIoWorkload>(scenario.machine,
                                                     scenario.vcpus[i], config));
    out.back()->Start(0);
  }
}

double Share(const Vcpu* vcpu, TimeNs duration) {
  return static_cast<double>(vcpu->total_service()) / static_cast<double>(duration);
}

struct SchedulerCase {
  SchedKind kind;
  bool capped;
};

class AllSchedulers : public ::testing::TestWithParam<SchedulerCase> {};

TEST_P(AllSchedulers, HighDensityStressRunsToCompletion) {
  const SchedulerCase param = GetParam();
  Scenario scenario = BuildScenario(SmallConfig(param.kind, param.capped));
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  AttachStress(scenario, stress, 0);
  scenario.machine->Start();
  scenario.machine->RunFor(2 * kSecond);
  // Sanity: every VM made progress and no CPU exceeded wall time.
  for (const Vcpu* vcpu : scenario.vcpus) {
    EXPECT_GT(vcpu->total_service(), 50 * kMillisecond) << vcpu->id();
  }
  for (int cpu = 0; cpu < scenario.machine->num_cpus(); ++cpu) {
    EXPECT_LE(scenario.machine->cpu_busy_ns(cpu) + scenario.machine->cpu_overhead_ns(cpu),
              2 * kSecond + kMillisecond);
  }
  const obs::MetricsSnapshot metrics = scenario.machine->metrics().Snapshot();
  EXPECT_GT(metrics.values.at(SchedOpMetric(SchedOp::kSchedule)).hist.count, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllSchedulers,
    ::testing::Values(SchedulerCase{SchedKind::kCredit, true},
                      SchedulerCase{SchedKind::kCredit, false},
                      SchedulerCase{SchedKind::kCredit2, false},
                      SchedulerCase{SchedKind::kRtds, true},
                      SchedulerCase{SchedKind::kTableau, true},
                      SchedulerCase{SchedKind::kTableau, false}),
    [](const ::testing::TestParamInfo<SchedulerCase>& info) {
      return std::string(SchedKindName(info.param.kind)) +
             (info.param.capped ? "Capped" : "Uncapped");
    });

TEST(Integration, TableauCappedVantageBoundedDelayUnderIoStress) {
  // Fig. 5(a): Tableau always shows ~10 ms max intrinsic delay, regardless
  // of background workload.
  Scenario scenario = BuildScenario(SmallConfig(SchedKind::kTableau, /*capped=*/true));
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload vantage_loop(scenario.machine, scenario.vantage);
  vantage_loop.Start(0);
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  AttachStress(scenario, stress, 1);
  scenario.machine->Start();
  scenario.machine->RunFor(5 * kSecond);
  const TimeNs bound = scenario.plan.vcpus[0].blackout_bound;
  EXPECT_LE(scenario.vantage->service_gaps().Max(), bound);
  // And the vantage VM received its full 25% reservation.
  EXPECT_GE(Share(scenario.vantage, 5 * kSecond), 0.249);
}

TEST(Integration, TableauUncappedVantageUsesSecondLevel) {
  // Sec. 7.4: ">85% of the scheduling decisions resulting in the vantage
  // VM's execution were made by the level-2 round-robin scheduler" when the
  // vantage VM is busy and background VMs block frequently.
  Scenario scenario = BuildScenario(SmallConfig(SchedKind::kTableau, /*capped=*/false));
  CpuHogWorkload vantage_loop(scenario.machine, scenario.vantage);
  vantage_loop.Start(0);
  std::vector<std::unique_ptr<StressIoWorkload>> stress;
  AttachStress(scenario, stress, 1);
  scenario.machine->Start();
  scenario.machine->RunFor(3 * kSecond);
  EXPECT_GT(scenario.machine->SecondLevelFraction(scenario.vantage->id()), 0.5);
  // Work conservation: the vantage VM exceeds its 25% reservation.
  EXPECT_GT(Share(scenario.vantage, 3 * kSecond), 0.3);
}

TEST(Integration, CreditCappedDelaysExceedTableau) {
  // Fig. 5(a): Credit's capped delays reach tens of ms; Tableau stays at
  // the table gap (~10 ms).
  TimeNs max_gap[2];
  int index = 0;
  for (const SchedKind kind : {SchedKind::kCredit, SchedKind::kTableau}) {
    Scenario scenario = BuildScenario(SmallConfig(kind, /*capped=*/true));
    scenario.vantage->EnableInstrumentation();
    CpuHogWorkload vantage_loop(scenario.machine, scenario.vantage);
    vantage_loop.Start(0);
    std::vector<std::unique_ptr<StressIoWorkload>> stress;
    AttachStress(scenario, stress, 1);
    scenario.machine->Start();
    scenario.machine->RunFor(5 * kSecond);
    max_gap[index++] = scenario.vantage->service_gaps().Max();
  }
  EXPECT_GT(max_gap[0], max_gap[1]);
}

TEST(Integration, TableauSchedulerOverheadLowestUnderIoStress) {
  // Table 1's ordering for the schedule op at the paper's 16-core scale
  // (Credit's work-stealing scans and RTDS's global lock only get expensive
  // with enough cores): Tableau < RTDS < Credit.
  double schedule_cost[3];
  int index = 0;
  for (const SchedKind kind : {SchedKind::kTableau, SchedKind::kRtds, SchedKind::kCredit}) {
    ScenarioConfig config;
    config.scheduler = kind;
    config.capped = true;  // 12 guest cores, 48 VMs.
    Scenario scenario = BuildScenario(config);
    std::vector<std::unique_ptr<StressIoWorkload>> stress;
    AttachStress(scenario, stress, 0);
    scenario.machine->Start();
    scenario.machine->RunFor(2 * kSecond);
    schedule_cost[index++] = scenario.machine->metrics()
                                 .Snapshot()
                                 .values.at(SchedOpMetric(SchedOp::kSchedule))
                                 .hist.Mean();
  }
  EXPECT_LT(schedule_cost[0], schedule_cost[1]);  // Tableau < RTDS.
  EXPECT_LT(schedule_cost[1], schedule_cost[2]);  // RTDS < Credit.
}

TEST(Integration, PingLatencyCappedScenario) {
  // Fig. 6(d), no-background case: every VM occasionally needs CPU for
  // system processes, so under Credit the capped vantage VM can exhaust its
  // credit and wait out the other VMs (paper: up to 15 ms even without a
  // benchmark running); under Tableau the RTT never exceeds the table
  // structure (~10 ms for this config).
  TimeNs max_rtt_tableau = 0;
  TimeNs max_rtt_credit = 0;
  for (const SchedKind kind : {SchedKind::kTableau, SchedKind::kCredit}) {
    Scenario scenario = BuildScenario(SmallConfig(kind, /*capped=*/true));
    std::vector<std::unique_ptr<WorkQueueGuest>> guests;
    std::vector<std::unique_ptr<SystemNoiseWorkload>> noise;
    for (std::size_t i = 0; i < scenario.vcpus.size(); ++i) {
      guests.push_back(std::make_unique<WorkQueueGuest>(scenario.machine,
                                                        scenario.vcpus[i]));
      SystemNoiseWorkload::Config noise_config;
      noise_config.min_interval = 20 * kMillisecond;
      noise_config.max_interval = 60 * kMillisecond;
      noise_config.min_burst = 2 * kMillisecond;
      noise_config.max_burst = 6 * kMillisecond;
      noise_config.seed = i + 1;
      noise.push_back(std::make_unique<SystemNoiseWorkload>(
          scenario.machine, guests.back().get(), noise_config));
      noise.back()->Start(0);
    }
    PingTraffic::Config ping_config;
    ping_config.threads = 4;
    ping_config.pings_per_thread = 500;
    ping_config.max_spacing = 10 * kMillisecond;
    PingTraffic ping(scenario.machine, guests.front().get(), ping_config);
    ping.Start(0);
    scenario.machine->Start();
    scenario.machine->RunFor(8 * kSecond);
    EXPECT_EQ(ping.latencies().Count(), 2000u) << SchedKindName(kind);
    if (kind == SchedKind::kTableau) {
      max_rtt_tableau = ping.latencies().Max();
    } else {
      max_rtt_credit = ping.latencies().Max();
    }
  }
  EXPECT_LE(max_rtt_tableau, 11 * kMillisecond);
  EXPECT_GT(max_rtt_credit, max_rtt_tableau);
}

TEST(Integration, WebServerSlaThroughputTableauVsRtds) {
  // Fig. 7(b): at the paper's scale (48 VMs on 12 cores, I/O background
  // stress), the highest request rate whose p99 stays under the 100 ms SLA
  // is higher for Tableau than for RTDS, whose global-lock overhead eats
  // guest cycles.
  const std::vector<double> rates = {1500, 1600, 1650};
  double peak[2] = {0, 0};
  int index = 0;
  for (const SchedKind kind : {SchedKind::kTableau, SchedKind::kRtds}) {
    for (const double rate : rates) {
      ScenarioConfig config;
      config.scheduler = kind;
      config.capped = true;
      Scenario scenario = BuildScenario(config);
      WebServerWorkload::Config web_config;
      web_config.file_bytes = 1024;
      WebServerWorkload server(scenario.machine, scenario.vantage, web_config);
      OpenLoopClient::Config client_config;
      client_config.requests_per_sec = rate;
      client_config.duration = 3 * kSecond;
      OpenLoopClient client(scenario.machine, &server, client_config);
      client.Start(0);
      std::vector<std::unique_ptr<StressIoWorkload>> stress;
      AttachStress(scenario, stress, 1);
      scenario.machine->Start();
      scenario.machine->RunFor(3 * kSecond);
      const double throughput = static_cast<double>(server.completed()) / 3.0;
      if (server.latencies().Percentile(0.99) <
              static_cast<TimeNs>(100 * kMillisecond) &&
          throughput > peak[index]) {
        peak[index] = throughput;
      }
    }
    ++index;
  }
  EXPECT_GT(peak[0], 0);
  EXPECT_GT(peak[0], peak[1]);  // Tableau's SLA-aware peak beats RTDS's.
}

TEST(Integration, CappedSharesMatchReservationAcrossSchedulers) {
  // All three capped schedulers must deliver ~25% to every CPU-bound VM.
  for (const SchedKind kind : {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau}) {
    Scenario scenario = BuildScenario(SmallConfig(kind, /*capped=*/true));
    std::vector<std::unique_ptr<CpuHogWorkload>> hogs;
    for (Vcpu* vcpu : scenario.vcpus) {
      hogs.push_back(std::make_unique<CpuHogWorkload>(scenario.machine, vcpu));
      hogs.back()->Start(0);
    }
    scenario.machine->Start();
    scenario.machine->RunFor(3 * kSecond);
    for (const Vcpu* vcpu : scenario.vcpus) {
      EXPECT_NEAR(Share(vcpu, 3 * kSecond), 0.25, 0.04)
          << SchedKindName(kind) << " vcpu " << vcpu->id();
    }
  }
}

TEST(Integration, UncappedWorkConservationAcrossSchedulers) {
  // One busy VM on an otherwise idle uncapped machine gets nearly a full
  // core under every uncapped scheduler.
  for (const SchedKind kind :
       {SchedKind::kCredit, SchedKind::kCredit2, SchedKind::kTableau}) {
    Scenario scenario = BuildScenario(SmallConfig(kind, /*capped=*/false));
    CpuHogWorkload hog(scenario.machine, scenario.vantage);
    hog.Start(0);
    scenario.machine->Start();
    scenario.machine->RunFor(2 * kSecond);
    EXPECT_GT(Share(scenario.vantage, 2 * kSecond), 0.9) << SchedKindName(kind);
  }
}

TEST(Integration, PaperScale48VmsOn12Cores) {
  // The full paper configuration at shortened duration: a smoke test that
  // the 16-core (12 guest cores) setup runs under every scheduler.
  for (const SchedKind kind : {SchedKind::kCredit, SchedKind::kRtds, SchedKind::kTableau}) {
    ScenarioConfig config;
    config.scheduler = kind;
    config.capped = true;
    Scenario scenario = BuildScenario(config);
    ASSERT_EQ(scenario.vcpus.size(), 48u);
    std::vector<std::unique_ptr<StressIoWorkload>> stress;
    AttachStress(scenario, stress, 0);
    scenario.machine->Start();
    scenario.machine->RunFor(kSecond);
    TimeNs total_service = 0;
    for (const Vcpu* vcpu : scenario.vcpus) {
      total_service += vcpu->total_service();
    }
    // 48 VMs with ~15% I/O duty each, capped at 25%. Credit and RTDS serve
    // a VM whenever it is runnable, so total service approaches the duty
    // demand (~7.2 core-seconds). Capped Tableau confines each VM to its
    // table slots and time blocked inside a slot is lost (the Sec. 7.5
    // capped-I/O inefficiency), so its total is markedly lower.
    if (kind == SchedKind::kTableau) {
      EXPECT_GT(total_service, kSecond) << SchedKindName(kind);
      EXPECT_LT(total_service, 5 * kSecond) << SchedKindName(kind);
    } else {
      EXPECT_GT(total_service, 6 * kSecond) << SchedKindName(kind);
    }
  }
}

}  // namespace
}  // namespace tableau
