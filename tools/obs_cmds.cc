// `tableau trace`, `tableau obs` and `tableau golden`: traced single-host
// cells and what is rendered from them.
//
//   tableau trace [cell flags] [--out FILE]
//       A Fig. 5-style cell as Chrome/Perfetto trace_event JSON (load it in
//       ui.perfetto.dev or chrome://tracing; default file
//       <scheduler>.perfetto.json) plus a metrics CSV on stdout.
//   tableau obs [cell flags] [--window-ms W] [--slo-ms L]
//               [--json FILE] [--csv FILE] [--trace FILE]
//       A Fig. 6-style cell with the windowed telemetry layer attached:
//       per-VM SLO verdicts, causal latency attribution, the windowed time
//       series (JSON/CSV), and a Perfetto trace with wakeup->dispatch flows.
//   tableau golden [--update]
//       The four engine-golden fingerprints (trace's cell on 4 CPUs for
//       300 ms); --update rewrites the constants pinned in
//       tests/engine_golden_test.cc in place, the one-command flow for an
//       intentional semantics change (the diff still goes through review).
//
// Cell flags: --scheduler credit|credit2|rtds|tableau|cfs, --cpus N,
// --seconds S, --capped|--uncapped, --validate (schema-check the emitted
// Perfetto JSON, exit 1 if it does not conform) and --check-determinism
// (re-run with the observer — metrics for trace, telemetry for obs —
// disabled and exit 1 unless the trace fingerprints match: observability
// must not perturb the simulation).
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_export.h"
#include "src/workloads/ping.h"
#include "tools/cli.h"

#ifndef TABLEAU_GOLDEN_TEST_PATH
#define TABLEAU_GOLDEN_TEST_PATH "tests/engine_golden_test.cc"
#endif

namespace tableau::cli {
namespace {

// Defaults are trace's and golden's cell: 4 CPUs, 300 ms.
struct CellOptions {
  SchedKind scheduler = SchedKind::kTableau;
  int cpus = 4;
  TimeNs duration = 300 * kMillisecond;
  bool capped = true;
  bool validate = false;
  bool check_determinism = false;
};

void AddCellFlags(FlagSet& flags, CellOptions& cell) {
  flags.Custom("--scheduler", "NAME", [&cell](std::string_view name) {
    const std::optional<SchedKind> kind = SchedKindFromName(name);
    cell.scheduler = kind.value_or(cell.scheduler);
    return kind.has_value();
  });
  flags.Value("--cpus", &cell.cpus);
  flags.Duration("--seconds", &cell.duration, kSecond);
  flags.Switch("--capped", [&cell] { cell.capped = true; });
  flags.Switch("--uncapped", [&cell] { cell.capped = false; });
  flags.Switch("--validate", [&cell] { cell.validate = true; });
  flags.Switch("--check-determinism", [&cell] { cell.check_determinism = true; });
}

ScenarioConfig CellConfig(const CellOptions& cell) {
  ScenarioConfig config;
  config.scheduler = cell.scheduler;
  config.capped = cell.capped;
  config.guest_cpus = cell.cpus;
  config.cores_per_socket = cell.cpus >= 2 ? cell.cpus / 2 : 1;
  return config;
}

// A Fig. 5-style cell: a CPU-bound loop in the vantage VM, I/O-intensive
// stress in every other VM, 4 VMs per guest core. The workloads outlive the
// run but not this scope; the returned scenario keeps the trace.
Scenario RunFig5Cell(const CellOptions& cell, bool metrics_enabled) {
  Scenario scenario = BuildScenario(CellConfig(cell));
  scenario.machine->metrics().set_enabled(metrics_enabled);
  scenario.machine->trace().set_enabled(true);
  scenario.vantage->EnableInstrumentation();
  CpuHogWorkload loop(scenario.machine, scenario.vantage);
  loop.Start(0);
  BackgroundWorkloads background;
  AttachBackground(scenario, Background::kIo, 1, background);
  scenario.machine->Start();
  scenario.machine->RunFor(cell.duration);
  return scenario;
}

// Everything a Fig. 6 cell produces; the scenario owns the machine, and the
// workloads stay alive alongside it.
struct Fig6Run {
  Scenario scenario;
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<WorkQueueGuest> vantage_guest;
  std::unique_ptr<SystemNoiseWorkload> vantage_noise;
  std::unique_ptr<PingTraffic> ping;
  BackgroundWorkloads background;
};

// A Fig. 6-style cell: ping traffic into the vantage VM, system noise on the
// vantage, I/O-intensive stress in every other VM.
Fig6Run RunFig6Cell(const CellOptions& cell, TimeNs window, TimeNs slo_latency,
                    bool telemetry_enabled) {
  Fig6Run run;
  run.scenario = BuildScenario(CellConfig(cell));
  run.scenario.machine->trace().set_enabled(true);

  obs::Telemetry::Config telemetry_config;
  telemetry_config.window_ns = window;
  telemetry_config.slo.target_latency_ns = slo_latency;
  run.telemetry = std::make_unique<obs::Telemetry>(telemetry_config);
  run.telemetry->set_enabled(telemetry_enabled);
  AttachTelemetry(run.scenario, run.telemetry.get());

  run.vantage_guest =
      std::make_unique<WorkQueueGuest>(run.scenario.machine, run.scenario.vantage);
  SystemNoiseWorkload::Config noise_config;
  noise_config.seed = 1;
  run.vantage_noise = std::make_unique<SystemNoiseWorkload>(
      run.scenario.machine, run.vantage_guest.get(), noise_config);
  run.vantage_noise->Start(0);
  AttachBackground(run.scenario, Background::kIo, 1, run.background);

  PingTraffic::Config ping_config;
  ping_config.threads = 4;
  ping_config.pings_per_thread = 1 << 20;  // Bounded by the horizon, not count.
  ping_config.max_spacing = 10 * kMillisecond;
  run.ping = std::make_unique<PingTraffic>(run.scenario.machine, run.vantage_guest.get(),
                                           ping_config);
  run.ping->AttachTelemetry(run.telemetry.get());
  run.ping->Start(0);

  run.scenario.machine->Start();
  run.scenario.machine->RunFor(cell.duration);
  return run;
}

// Writes `content` and reports "wrote PATH (N bytes<detail>)".
bool Save(const std::string& path, const std::string& content,
          const std::string& detail = "") {
  if (!WriteFile(path, content)) {
    return false;
  }
  std::printf("wrote %s (%zu bytes%s)\n", path.c_str(), content.size(), detail.c_str());
  return true;
}

// Renders the cell's trace as Perfetto JSON (with wakeup->dispatch flow
// events when `flows`) and, on --validate, schema-checks it. Returns nullopt
// after reporting when the document does not conform.
std::optional<std::string> ExportTrace(const Scenario& scenario, const CellOptions& cell,
                                       const char* process, bool flows) {
  obs::PerfettoExportOptions options;
  options.process_name = std::string(process) + "/" + SchedKindName(cell.scheduler);
  options.include_flows = flows;
  for (const Vcpu* vcpu : scenario.vcpus) {
    options.vcpu_names[vcpu->id()] = vcpu->params().name;
  }
  std::string json = obs::TraceToPerfettoJson(scenario.machine->trace(),
                                              scenario.machine->num_cpus(), options);
  std::string error;
  if (cell.validate && !obs::ValidatePerfettoJson(json, &error)) {
    std::fprintf(stderr, "FAIL: emitted Perfetto JSON invalid: %s\n", error.c_str());
    return std::nullopt;
  }
  if (cell.validate) {
    std::printf("validate: OK (%zu bytes%s)\n", json.size(),
                flows ? ", flow events on" : "");
  }
  return json;
}

// The pure-observer guarantee: the run with `observer` on and the re-run with
// it off must leave bit-identical traces.
int CheckObserverNeutral(std::uint64_t on, std::uint64_t off, const char* observer) {
  if (on != off) {
    std::fprintf(stderr,
                 "FAIL: %s-enabled trace fingerprint 0x%016llx differs from "
                 "%s-disabled 0x%016llx\n",
                 observer, static_cast<unsigned long long>(on), observer,
                 static_cast<unsigned long long>(off));
    return 1;
  }
  std::printf("\ncheck-determinism: OK (fingerprint 0x%016llx, %s on == off)\n",
              static_cast<unsigned long long>(on), observer);
  return 0;
}

void PrintSloTables(const obs::Telemetry& telemetry) {
  std::printf("\n--- SLO verdicts (target p%g <= %.3f ms, budget %.2f%%) ---\n",
              telemetry.slo().config().target_quantile * 100,
              ToMs(telemetry.slo().config().target_latency_ns),
              telemetry.slo().config().miss_budget * 100);
  std::printf("%-8s %9s %7s %11s %8s %9s %7s %6s\n", "vm", "requests", "misses",
              "attainment", "met", "burnrate", "streak", "burst");
  for (int vm = 0; vm < telemetry.num_vms(); ++vm) {
    const obs::SloVerdict v = telemetry.slo().VerdictFor(vm);
    if (v.requests == 0) {
      continue;
    }
    std::printf("vm%-6d %9llu %7llu %10.4f%% %8s %9.3f %7llu %6s\n", vm,
                static_cast<unsigned long long>(v.requests),
                static_cast<unsigned long long>(v.misses), v.attainment * 100,
                v.slo_met ? "yes" : "NO", v.burn_rate,
                static_cast<unsigned long long>(v.longest_streak),
                v.burst_detected ? "YES" : "no");
  }

  std::printf("\n--- causal latency attribution (mean ms per request) ---\n");
  std::printf("%-8s %9s", "vm", "latency");
  for (int c = 0; c < obs::kNumLatencyComponents; ++c) {
    std::printf(" %11s",
                obs::LatencyComponentName(static_cast<obs::LatencyComponent>(c)));
  }
  std::printf("\n");
  for (int vm = 0; vm < telemetry.num_vms(); ++vm) {
    const obs::HistogramValue latency = telemetry.RequestLatencyHistogram(vm);
    if (latency.count == 0) {
      continue;
    }
    std::printf("vm%-6d %9.3f", vm, ToMs(static_cast<TimeNs>(latency.Mean())));
    for (int c = 0; c < obs::kNumLatencyComponents; ++c) {
      const obs::HistogramValue h =
          telemetry.AttributionHistogram(vm, static_cast<obs::LatencyComponent>(c));
      std::printf(" %11.4f", ToMs(static_cast<TimeNs>(h.Mean())));
    }
    std::printf("\n");
  }
}

std::string HexConstant(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull", static_cast<unsigned long long>(value));
  return buf;
}

struct Golden {
  const char* label;
  const char* anchor;  // Unique call-site text preceding the pinned constant.
  SchedKind kind;
  bool capped;
  std::uint64_t value = 0;
};

// Replaces the `0x<16 hex>ull` token following `anchor` in `text`. Returns
// 1 if the constant changed, 0 if it already matched, -1 if the anchor or a
// well-formed constant was not found.
int RewriteConstant(std::string& text, const std::string& anchor, std::uint64_t value) {
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) {
    return -1;
  }
  const std::size_t hex = text.find("0x", at + anchor.size());
  constexpr std::size_t kTokenLength = 21;  // "0x" + 16 digits + "ull".
  if (hex == std::string::npos || text.compare(hex + 18, 3, "ull") != 0) {
    return -1;
  }
  const std::string replacement = HexConstant(value);
  if (text.compare(hex, kTokenLength, replacement) == 0) {
    return 0;
  }
  text.replace(hex, kTokenLength, replacement);
  return 1;
}

int UpdateGoldenTest(const Golden (&goldens)[4]) {
  const char* path = TABLEAU_GOLDEN_TEST_PATH;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s for update\n", path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  int changed = 0;
  for (const Golden& golden : goldens) {
    const int result = RewriteConstant(text, golden.anchor, golden.value);
    if (result < 0) {
      std::fprintf(stderr, "anchor not found in %s: %s\n", path, golden.anchor);
      return 1;
    }
    if (result > 0) {
      std::printf("updated  %-16s -> %s\n", golden.label,
                  HexConstant(golden.value).c_str());
      ++changed;
    }
  }
  if (changed == 0) {
    std::printf("%s already up to date\n", path);
    return 0;
  }
  if (!WriteFile(path, text)) {
    return 1;
  }
  std::printf("rewrote %d constant(s) in %s — rebuild and rerun "
              "engine_golden_test to confirm\n",
              changed, path);
  return 0;
}

}  // namespace

int TraceMain(int argc, char** argv) {
  CellOptions cell;
  std::string out;
  FlagSet flags("trace");
  AddCellFlags(flags, cell);
  flags.Value("--out", &out);
  flags.Parse(argc, argv, 0);
  if (cell.cpus < 1 || cell.duration <= 0) {
    flags.Usage();
  }

  const Scenario scenario = RunFig5Cell(cell, /*metrics_enabled=*/true);
  const std::optional<std::string> json =
      ExportTrace(scenario, cell, "tableau-sim", /*flows=*/false);
  if (!json.has_value()) {
    return 1;
  }
  const TraceBuffer& trace = scenario.machine->trace();
  const std::string path =
      out.empty() ? std::string(SchedKindName(cell.scheduler)) + ".perfetto.json" : out;
  if (!Save(path, *json,
            ", " + std::to_string(trace.size()) + " trace records, " +
                std::to_string(trace.dropped()) + " dropped")) {
    return 1;
  }
  std::printf("\n--- metrics (CSV) ---\n%s",
              scenario.machine->SnapshotMetrics().ToCsv().c_str());
  if (!cell.check_determinism) {
    return 0;
  }
  return CheckObserverNeutral(
      TraceFingerprint(*scenario.machine),
      TraceFingerprint(*RunFig5Cell(cell, /*metrics_enabled=*/false).machine),
      "metrics");
}

int ObsMain(int argc, char** argv) {
  CellOptions cell;
  cell.duration = kSecond / 2;
  TimeNs window = 10 * kMillisecond;
  TimeNs slo_latency = 10 * kMillisecond;
  std::string json_out;
  std::string csv_out;
  std::string trace_out;
  FlagSet flags("obs");
  AddCellFlags(flags, cell);
  flags.Duration("--window-ms", &window, kMillisecond);
  flags.Duration("--slo-ms", &slo_latency, kMillisecond);
  flags.Value("--json", &json_out);
  flags.Value("--csv", &csv_out);
  flags.Value("--trace", &trace_out);
  flags.Parse(argc, argv, 0);
  if (cell.cpus < 1 || cell.duration <= 0 || window <= 0 || slo_latency <= 0) {
    flags.Usage();
  }

  const Fig6Run run = RunFig6Cell(cell, window, slo_latency, /*telemetry_enabled=*/true);
  PrintSloTables(*run.telemetry);
  if (!json_out.empty() && !Save(json_out, run.telemetry->ToJson() + "\n")) {
    return 1;
  }
  if (!csv_out.empty() && !Save(csv_out, run.telemetry->TimeSeries().ToCsv())) {
    return 1;
  }
  if (!trace_out.empty() || cell.validate) {
    const std::optional<std::string> json =
        ExportTrace(run.scenario, cell, "tableau-obs", /*flows=*/true);
    if (!json.has_value() || (!trace_out.empty() && !Save(trace_out, *json))) {
      return 1;
    }
  }
  if (!cell.check_determinism) {
    return 0;
  }
  return CheckObserverNeutral(
      TraceFingerprint(*run.scenario.machine),
      TraceFingerprint(*RunFig6Cell(cell, window, slo_latency, false).scenario.machine),
      "telemetry");
}

int GoldenMain(int argc, char** argv) {
  bool update = false;
  FlagSet flags("golden");
  flags.Switch("--update", [&update] { update = true; });
  flags.Parse(argc, argv, 0);

  Golden goldens[4] = {
      {"kCredit/capped", "RunOne(SchedKind::kCredit, /*capped=*/true), ",
       SchedKind::kCredit, true},
      {"kRtds/capped", "RunOne(SchedKind::kRtds, /*capped=*/true), ", SchedKind::kRtds,
       true},
      {"kTableau/capped", "RunOne(SchedKind::kTableau, /*capped=*/true), ",
       SchedKind::kTableau, true},
      {"kCredit/uncapped", "RunOne(SchedKind::kCredit, /*capped=*/false), ",
       SchedKind::kCredit, false},
  };
  for (Golden& golden : goldens) {
    CellOptions cell;
    cell.scheduler = golden.kind;
    cell.capped = golden.capped;
    golden.value =
        GoldenFingerprint(*RunFig5Cell(cell, /*metrics_enabled=*/true).machine);
    std::printf("%-16s %s\n", golden.label, HexConstant(golden.value).c_str());
  }
  return update ? UpdateGoldenTest(goldens) : 0;
}

}  // namespace tableau::cli
