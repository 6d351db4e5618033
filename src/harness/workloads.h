// Workload-population helpers shared by the benches, tools, and tests:
// attach the paper's background workload mixes (Sec. 7.3) to a built
// Scenario. Hoisted out of bench/bench_util.h so every scenario consumer
// (fig benches, `tableau obs`, the fuzzer) builds its VM population through
// one public harness API instead of private copies.
#ifndef SRC_HARNESS_WORKLOADS_H_
#define SRC_HARNESS_WORKLOADS_H_

#include <memory>
#include <vector>

#include "src/harness/scenario.h"
#include "src/workloads/guest.h"
#include "src/workloads/stress.h"

namespace tableau {

enum class Background { kNone, kIo, kIoHeavy, kCpu };

inline const char* BackgroundName(Background bg) {
  switch (bg) {
    case Background::kNone:
      return "none";
    case Background::kIo:
      return "I/O";
    case Background::kIoHeavy:
      return "I/O";
    case Background::kCpu:
      return "CPU";
  }
  return "?";
}

// Attaches the selected background workload to vCPUs [first, end).
struct BackgroundWorkloads {
  std::vector<std::unique_ptr<StressIoWorkload>> io;
  std::vector<std::unique_ptr<CpuHogWorkload>> cpu;
};

inline void AttachBackground(Scenario& scenario, Background kind, std::size_t first,
                             BackgroundWorkloads& out) {
  for (std::size_t i = first; i < scenario.vcpus.size(); ++i) {
    switch (kind) {
      case Background::kNone:
        break;
      case Background::kIo:
      case Background::kIoHeavy: {
        StressIoWorkload::Config config;
        if (kind == Background::kIoHeavy) {
          config = StressIoWorkload::Config::Heavy();
        }
        config.seed = i + 1;
        out.io.push_back(std::make_unique<StressIoWorkload>(scenario.machine,
                                                            scenario.vcpus[i], config));
        out.io.back()->Start(0);
        break;
      }
      case Background::kCpu:
        out.cpu.push_back(
            std::make_unique<CpuHogWorkload>(scenario.machine, scenario.vcpus[i]));
        out.cpu.back()->Start(0);
        break;
    }
  }
}

// The Fig. 6-style idle-VM population: every VM "still requires CPU time
// occasionally for system processes", so each vCPU in [first, end) gets a
// work-queue guest plus a SystemNoiseWorkload (seeded by vCPU index for
// determinism), optionally with the I/O-intensive stress mix on top.
struct VmNoiseWorkloads {
  std::vector<std::unique_ptr<WorkQueueGuest>> guests;
  std::vector<std::unique_ptr<SystemNoiseWorkload>> noises;
  std::vector<std::unique_ptr<StressIoWorkload>> io;
};

inline void AttachVmNoise(Scenario& scenario, std::size_t first,
                          SystemNoiseWorkload::Config noise_config, bool with_io,
                          VmNoiseWorkloads& out) {
  for (std::size_t i = first; i < scenario.vcpus.size(); ++i) {
    out.guests.push_back(
        std::make_unique<WorkQueueGuest>(scenario.machine, scenario.vcpus[i]));
    noise_config.seed = i + 1;
    out.noises.push_back(std::make_unique<SystemNoiseWorkload>(
        scenario.machine, out.guests.back().get(), noise_config));
    out.noises.back()->Start(0);
    if (with_io) {
      StressIoWorkload::Config stress_config;
      stress_config.seed = i + 1;
      out.io.push_back(std::make_unique<StressIoWorkload>(
          scenario.machine, out.guests.back().get(), stress_config));
      out.io.back()->Start(0);
    }
  }
}

}  // namespace tableau

#endif  // SRC_HARNESS_WORKLOADS_H_
