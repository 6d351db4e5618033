// tableau: the command-line front end to the whole system — the standalone
// analog of the paper's dom0 userspace planner, plus the fleet, adaptation,
// verification and observability layers built on it. One binary, one
// subcommand per job:
//
//   tableau plan --cpus N [--cores-per-socket K] [--peephole] [--out FILE]
//                U:L_ms[:SOCKET] ...
//       Plans the reservations through Planner::Solve(PlanRequest) and
//       prints the per-vCPU report; --out writes the table in the binary
//       "hypercall" format the dispatcher consumes.
//   tableau show FILE            validates and summarizes a written table;
//                                a malformed file exits 2
//   tableau fleet run|describe   multi-host fleet simulation (fleet_cmds.cc)
//   tableau adapt run|describe   the same with adaptive reservations
//   tableau check run|fuzz|replay|selftest   verification (check_cmds.cc)
//   tableau trace | obs | golden   traced single-host cells (obs_cmds.cc)
//
// `tableau` alone lists the subcommands; a usage error in one prints its
// flags.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/core/planner.h"
#include "tools/cli.h"

namespace tableau::cli {

std::vector<std::string> FlagSet::Parse(int argc, char** argv, std::size_t min_args,
                                        std::size_t max_args) {
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.emplace_back(arg);
      continue;
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [arg](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      Usage();
    }
    const char* value = "";
    if (flag->metavar != nullptr) {
      if (++i >= argc) {
        Usage();
      }
      value = argv[i];
    }
    if (!flag->apply(value)) {
      Usage();
    }
  }
  if (positional.size() < min_args || positional.size() > max_args) {
    Usage();
  }
  return positional;
}

void FlagSet::Usage() const {
  std::string text = "usage: tableau " + synopsis_;
  std::size_t column = text.size();
  for (const Flag& flag : flags_) {
    const std::string metavar =
        flag.metavar != nullptr ? std::string(" ") + flag.metavar : "";
    const std::string item = " [" + flag.name + metavar + "]";
    if (column + item.size() > 79) {
      text += "\n       ";
      column = 7;
    }
    text += item;
    column += item.size();
  }
  std::fprintf(stderr, "%s\n", text.c_str());
  std::exit(2);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out.write(content.data(), static_cast<std::streamsize>(content.size()))) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

namespace {

// U:L_ms or U:L_ms:SOCKET, e.g. 0.25:20 or 0.5:10:1.
bool ParseVmSpec(std::string_view spec, VcpuId id, VcpuRequest* out) {
  const std::size_t first = spec.find(':');
  const std::size_t second = spec.find(':', first + 1);
  double utilization = 0;
  TimeNs latency_goal = 0;
  int socket = -1;
  if (first == std::string_view::npos ||
      !ParseValue(spec.substr(0, first), &utilization) ||
      !ParseDuration(spec.substr(first + 1, second - first - 1), kMillisecond,
                     &latency_goal) ||
      (second != std::string_view::npos &&
       !ParseValue(spec.substr(second + 1), &socket))) {
    return false;
  }
  out->vcpu = id;
  out->utilization = utilization;
  out->latency_goal = latency_goal;
  out->socket_affinity = socket;
  return true;
}

void PrintPlanReport(const PlanResult& plan) {
  std::printf("method: %s; table %s, %zu bytes serialized\n",
              PlanMethodName(plan.method), FormatDuration(plan.table.length()).c_str(),
              plan.table.SerializedSizeBytes());
  std::printf("%-5s %8s %12s %12s %14s %12s %12s %6s\n", "vcpu", "U", "C", "T",
              "latency bound", "E[wait]", "max wait", "split");
  for (const VcpuPlan& vcpu : plan.vcpus) {
    const LatencyProfile profile = AnalyzeWakeupLatency(plan.table, vcpu.vcpu);
    std::printf("%-5d %7.2f%% %12s %12s %14s %12s %12s %6s\n", vcpu.vcpu,
                100.0 * vcpu.requested_utilization, FormatDuration(vcpu.cost).c_str(),
                FormatDuration(vcpu.period).c_str(),
                FormatDuration(vcpu.blackout_bound).c_str(),
                FormatDuration(profile.mean).c_str(),
                FormatDuration(profile.max).c_str(), vcpu.split ? "yes" : "no");
  }
}

}  // namespace

int PlanMain(int argc, char** argv) {
  PlannerConfig config;
  config.num_cpus = 0;
  std::string out_path;
  FlagSet flags("plan --cpus N U:L_ms[:SOCKET] ...");
  flags.Value("--cpus", &config.num_cpus);
  flags.Value("--cores-per-socket", &config.cores_per_socket);
  flags.Switch("--peephole", [&config] { config.peephole_pass = true; });
  flags.Value("--out", &out_path);
  const std::vector<std::string> specs = flags.Parse(argc, argv, 1, SIZE_MAX);
  std::vector<VcpuRequest> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!ParseVmSpec(specs[i], static_cast<VcpuId>(i), &requests[i])) {
      std::fprintf(stderr, "bad VM spec '%s'\n", specs[i].c_str());
      flags.Usage();
    }
  }
  if (config.num_cpus <= 0) {
    flags.Usage();
  }

  const PlanResult plan = Planner(config).Solve(PlanRequest::Full(requests));
  if (!plan.success) {
    std::fprintf(stderr, "planning failed: %s\n", plan.error.c_str());
    return 1;
  }
  PrintPlanReport(plan);
  if (!out_path.empty()) {
    const std::vector<std::uint8_t> bytes = plan.table.Serialize();
    if (!WriteFile(out_path, std::string(bytes.begin(), bytes.end()))) {
      return 1;
    }
    std::printf("wrote %zu bytes to %s\n", bytes.size(), out_path.c_str());
  }
  return 0;
}

int ShowMain(int argc, char** argv) {
  const std::string path = FlagSet("show FILE").Parse(argc, argv, 1)[0];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  const std::optional<SchedulingTable> parsed = SchedulingTable::Deserialize(bytes);
  if (!parsed) {
    std::fprintf(stderr, "%s: malformed table\n", path.c_str());
    return 2;
  }
  const SchedulingTable& table = *parsed;
  const std::string violation = table.Validate();
  std::printf("table: %d pCPUs, length %s, %zu bytes; validation: %s\n",
              table.num_cpus(), FormatDuration(table.length()).c_str(), bytes.size(),
              violation.empty() ? "ok" : violation.c_str());
  for (int cpu = 0; cpu < table.num_cpus(); ++cpu) {
    const CpuTable& cpu_table = table.cpu(cpu);
    TimeNs busy = 0;
    for (const Allocation& alloc : cpu_table.allocations) {
      busy += alloc.Length();
    }
    std::printf(
        "  cpu%-2d: %3zu allocations, %4zu slices x %s, %5.1f%% reserved, locals:",
        cpu, cpu_table.allocations.size(), cpu_table.num_slices(),
        FormatDuration(cpu_table.slice_length).c_str(),
        100.0 * static_cast<double>(busy) / static_cast<double>(table.length()));
    for (const VcpuId vcpu : cpu_table.local_vcpus) {
      std::printf(" %d", vcpu);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace tableau::cli

int main(int argc, char** argv) {
  using namespace tableau::cli;
  struct Command {
    const char* name;
    int (*run)(int, char**);
    const char* summary;
  };
  static constexpr Command kCommands[] = {
      {"plan", PlanMain, "plan reservations into a table, optionally write it"},
      {"show", ShowMain, "validate and summarize a written table"},
      {"fleet", [](int n, char** v) { return FleetMain(n, v, false); },
       "run or describe a multi-host fleet; check determinism"},
      {"adapt", [](int n, char** v) { return FleetMain(n, v, true); },
       "the same with closed-loop adaptive reservations"},
      {"check", CheckMain, "run|fuzz|replay|selftest the property checkers"},
      {"trace", TraceMain, "export a traced Fig. 5 cell as Perfetto JSON"},
      {"obs", ObsMain, "SLO verdicts and latency attribution of a Fig. 6 cell"},
      {"golden", GoldenMain, "print (--update: rewrite) the engine goldens"},
  };
  const std::string_view command = argc > 1 ? argv[1] : "";
  for (const Command& entry : kCommands) {
    if (command == entry.name) {
      return entry.run(argc - 2, argv + 2);
    }
  }
  std::fprintf(stderr, "usage: tableau COMMAND [ARGS]\n");
  for (const Command& entry : kCommands) {
    std::fprintf(stderr, "  %-7s %s\n", entry.name, entry.summary);
  }
  return 2;
}
