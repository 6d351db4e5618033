// `tableau check`: the front end to the verification subsystem (src/check).
//
//   tableau check run [--seed N]           one generated scenario, verbose
//   tableau check fuzz --seeds A:B         seed range [A, B); exit 1 on any
//       [--shrink] [--repro-dir DIR]       violation, optionally shrinking
//                                          and writing reproducer files
//   tableau check replay FILE...           replay saved reproducers of
//                                          either fuzz engine (exit 1 on any
//                                          violation)
//   tableau check selftest                 prove the checkers catch planted
//                                          scheduler mutations
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/adapt_fuzz.h"
#include "src/check/mutants.h"
#include "src/check/scenario_fuzz.h"
#include "tools/cli.h"

namespace tableau::cli {
namespace {

using check::CheckOutcome;
using check::ScenarioSpec;

void PrintOutcome(const ScenarioSpec& spec, const CheckOutcome& outcome) {
  std::printf("scheduler=%s vcpus=%d duration=%lld ms records=%llu violations=%zu\n",
              SchedKindName(spec.scheduler), spec.TotalVcpus(),
              static_cast<long long>(spec.duration / kMillisecond),
              static_cast<unsigned long long>(outcome.records),
              outcome.violations.size());
  for (const std::string& violation : outcome.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
}

int RunCommand(std::uint64_t seed) {
  const ScenarioSpec spec = check::GenerateSpec(seed);
  std::printf("%s", check::FormatSpec(spec).c_str());
  const CheckOutcome outcome = check::RunCheckedScenario(spec);
  PrintOutcome(spec, outcome);
  return outcome.violations.empty() ? 0 : 1;
}

int FuzzCommand(std::uint64_t begin, std::uint64_t end, bool shrink,
                const std::string& repro_dir) {
  int failures = 0;
  for (std::uint64_t seed = begin; seed < end; ++seed) {
    const ScenarioSpec spec = check::GenerateSpec(seed);
    const CheckOutcome outcome = check::RunCheckedScenario(spec);
    if (outcome.violations.empty()) {
      continue;
    }
    ++failures;
    std::printf("seed %llu: %zu violation(s), first: %s\n",
                static_cast<unsigned long long>(seed), outcome.violations.size(),
                outcome.violations.front().c_str());
    ScenarioSpec repro = spec;
    if (shrink) {
      const check::ShrinkResult<ScenarioSpec> shrunk =
          check::Shrink(spec, check::CategoryOf(outcome.violations));
      repro = shrunk.spec;
      std::printf("  shrunk to %d vCPU(s) in %d run(s)\n", repro.TotalVcpus(),
                  shrunk.runs);
    }
    if (!repro_dir.empty()) {
      const std::string path = repro_dir + "/seed" + std::to_string(seed) + ".txt";
      std::ofstream out(path);
      out << "# " << outcome.violations.front() << "\n" << check::FormatSpec(repro);
      std::printf("  wrote %s\n", path.c_str());
    } else {
      std::printf("%s", check::FormatSpec(repro).c_str());
    }
  }
  std::printf("fuzz: %llu seed(s), %d failing\n",
              static_cast<unsigned long long>(end - begin), failures);
  return failures == 0 ? 0 : 1;
}

// Replays one reproducer (comment lines already stripped) through the
// engine its header names: 0 = clean, 1 = violations, 2 = malformed.
int ReplayOne(const std::string& path, const std::string& text) {
  if (text.rfind("tableau-adapt-repro v1\n", 0) == 0) {
    const std::optional<check::AdaptScenarioSpec> spec = check::ParseAdaptSpec(text);
    if (!spec.has_value()) {
      return 2;
    }
    const check::AdaptCheckOutcome outcome = check::RunAdaptScenario(*spec);
    std::printf("replayed %s: %d resizes, %zu violations\n", path.c_str(),
                outcome.resizes, outcome.violations.size());
    for (const std::string& entry : outcome.resize_log) {
      std::printf("  resize %s\n", entry.c_str());
    }
    for (const std::string& violation : outcome.violations) {
      std::printf("  VIOLATION %s\n", violation.c_str());
    }
    return outcome.violations.empty() ? 0 : 1;
  }
  const std::optional<ScenarioSpec> spec = check::ParseSpec(text);
  if (!spec.has_value()) {
    return 2;
  }
  std::printf("replay %s:\n", path.c_str());
  const CheckOutcome outcome = check::RunCheckedScenario(*spec);
  PrintOutcome(*spec, outcome);
  return outcome.violations.empty() ? 0 : 1;
}

int ReplayCommand(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    std::string line;
    // Skip comment lines (the recorded violation or pinned regime).
    while (std::getline(in, line)) {
      if (line.empty() || line[0] != '#') {
        text << line << "\n";
      }
    }
    const int result = ReplayOne(path, text.str());
    if (result == 2) {
      std::fprintf(stderr, "%s: malformed reproducer\n", path.c_str());
      return 2;
    }
    failures += result;
  }
  return failures == 0 ? 0 : 1;
}

// Plants each mutant into a Tableau scenario and demands the oracles notice:
// a verification subsystem that can't catch a planted bug proves nothing.
int SelftestCommand() {
  ScenarioSpec spec = check::GenerateSpec(1);
  spec.scheduler = SchedKind::kTableau;
  spec.capped = true;
  spec.replan_at = 0;
  spec.planner_failure = 0.0;
  spec.mutant_stride = 7;
  int failures = 0;
  for (check::MutantKind mutant :
       {check::MutantKind::kWrongVcpu, check::MutantKind::kOverrunSlice}) {
    spec.mutant = mutant;
    const CheckOutcome outcome = check::RunCheckedScenario(spec);
    const bool caught = !outcome.violations.empty();
    std::printf("mutant %s: %s\n", check::MutantKindName(mutant),
                caught ? "caught" : "MISSED");
    if (caught) {
      std::printf("  first: %s\n", outcome.violations.front().c_str());
    } else {
      ++failures;
    }
  }
  spec.mutant = check::MutantKind::kNone;
  const CheckOutcome clean = check::RunCheckedScenario(spec);
  std::printf("no mutant: %zu violation(s) (want 0)\n", clean.violations.size());
  if (!clean.violations.empty()) {
    std::printf("  first: %s\n", clean.violations.front().c_str());
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int CheckMain(int argc, char** argv) {
  const std::string command = argc > 0 ? argv[0] : "";
  FlagSet flags("check " + command);
  if (command == "run") {
    std::uint64_t seed = 1;
    flags.Value("--seed", &seed);
    flags.Parse(argc - 1, argv + 1, 0);
    return RunCommand(seed);
  }
  if (command == "fuzz") {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool shrink = false;
    std::string repro_dir;
    flags.Custom("--seeds", "A:B", [&begin, &end](std::string_view range) {
      const std::size_t colon = range.find(':');
      return colon != std::string_view::npos &&
             ParseValue(range.substr(0, colon), &begin) &&
             ParseValue(range.substr(colon + 1), &end);
    });
    flags.Switch("--shrink", [&shrink] { shrink = true; });
    flags.Value("--repro-dir", &repro_dir);
    flags.Parse(argc - 1, argv + 1, 0);
    if (end <= begin) {
      flags.Usage();
    }
    return FuzzCommand(begin, end, shrink, repro_dir);
  }
  if (command == "replay") {
    return ReplayCommand(
        FlagSet("check replay FILE...").Parse(argc - 1, argv + 1, 1, SIZE_MAX));
  }
  if (command == "selftest") {
    flags.Parse(argc - 1, argv + 1, 0);
    return SelftestCommand();
  }
  FlagSet("check run|fuzz|replay|selftest").Usage();
}

}  // namespace tableau::cli
