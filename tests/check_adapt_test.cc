// Closed-loop adaptive-reservation property battery (`ctest -L check`):
// 1000 seeded bursty scenarios drive the real fleet::Host + controller +
// planner-delta actuation loop and check, per scenario:
//
//   - every installed resize's table passes the TableVerifier;
//   - oscillation is bounded by the hysteresis contract (deadbands, at
//     least cooldown_windows + 1 data windows between commits per VM);
//   - no VM ever shrinks below the independently recomputed floor quantile
//     of its observed demand, or outside its [min, max] clamps;
//   - idle (no-data) windows never trigger a resize.
//
// A violation greedily shrinks to a minimal reproducer written under
// tests/repro/adapt/ in the committed-corpus format, and the corpus replays
// clean here so past bugs stay fixed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/adapt_fuzz.h"

#ifndef TABLEAU_REPRO_DIR
#error "TABLEAU_REPRO_DIR must point at the committed reproducer corpus"
#endif

namespace tableau::check {
namespace {

constexpr int kBatterySeeds = 1000;

std::string WriteReproducer(const AdaptScenarioSpec& spec,
                            const std::string& category, std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(TABLEAU_REPRO_DIR) / "adapt";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file = dir / ("shrunk-seed-" + std::to_string(seed) + ".txt");
  std::ofstream out(file);
  out << "# category: " << category << "\n";
  out << FormatAdaptSpec(spec);
  return file.string();
}

TEST(AdaptFuzz, ThousandSeedBatteryHoldsEveryProperty) {
  int total_resizes = 0;
  for (int seed = 1; seed <= kBatterySeeds; ++seed) {
    const AdaptScenarioSpec spec =
        GenerateAdaptSpec(static_cast<std::uint64_t>(seed));
    const AdaptCheckOutcome outcome = RunAdaptScenario(spec);
    total_resizes += outcome.resizes;
    if (outcome.violations.empty()) {
      continue;
    }
    const std::string category = AdaptCategoryOf(outcome.violations);
    const ShrinkResult<AdaptScenarioSpec> shrunk = ShrinkAdaptSpec(spec, category);
    const std::string path =
        WriteReproducer(shrunk.spec, category, static_cast<std::uint64_t>(seed));
    FAIL() << "seed " << seed << " (" << outcome.violations.size()
           << " violations, category '" << category
           << "'): " << outcome.violations.front()
           << "\nshrunk reproducer written to " << path;
  }
  // The battery is vacuous if the loop never actuates: across 1000 bursty
  // scenarios the controller must commit plenty of real resizes.
  EXPECT_GT(total_resizes, 1000);
}

TEST(AdaptFuzz, ControlLoopIsDeterministic) {
  for (const std::uint64_t seed : {3u, 17u, 101u, 977u}) {
    const AdaptScenarioSpec spec = GenerateAdaptSpec(seed);
    const AdaptCheckOutcome first = RunAdaptScenario(spec);
    const AdaptCheckOutcome second = RunAdaptScenario(spec);
    EXPECT_EQ(first.resizes, second.resizes) << "seed " << seed;
    EXPECT_EQ(first.resize_log, second.resize_log) << "seed " << seed;
    EXPECT_EQ(first.violations, second.violations) << "seed " << seed;
  }
}

TEST(AdaptFuzz, SpecRoundTripsThroughText) {
  for (int seed = 1; seed <= 50; ++seed) {
    const AdaptScenarioSpec spec =
        GenerateAdaptSpec(static_cast<std::uint64_t>(seed));
    const std::string text = FormatAdaptSpec(spec);
    const auto parsed = ParseAdaptSpec(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    // Canonical form is a fixed point: format(parse(format(s))) == format(s).
    EXPECT_EQ(FormatAdaptSpec(*parsed), text) << "seed " << seed;
  }
}

TEST(AdaptFuzz, ParserRejectsMalformedSpecs) {
  EXPECT_FALSE(ParseAdaptSpec("").has_value());
  EXPECT_FALSE(ParseAdaptSpec("tableau-repro v1\nseed=1\n").has_value());
  EXPECT_FALSE(
      ParseAdaptSpec("tableau-adapt-repro v1\nbogus_key=1\n").has_value());
  EXPECT_FALSE(  // No VMs.
      ParseAdaptSpec("tableau-adapt-repro v1\nseed=1\n").has_value());
  EXPECT_FALSE(  // VM line without a demand trace.
      ParseAdaptSpec("tableau-adapt-repro v1\nvm=init:0.25\n").has_value());
  // Every value must parse in full, demand entries included.
  const std::string header = "tableau-adapt-repro v1\n";
  const std::string vm = "vm=init:0.25 latency_ns:20000000 demand:0.05,x,0.5\n";
  ASSERT_TRUE(ParseAdaptSpec(header + vm).has_value());
  for (const std::string& bad :
       {"num_cpus=2x\n" + vm, "seed=one\n" + vm,
        std::string("vm=init:0.25 latency_ns:20000000 demand:0.05x,x,0.5\n")}) {
    EXPECT_FALSE(ParseAdaptSpec(header + bad).has_value()) << bad;
  }
}

TEST(AdaptFuzz, ShrinkWithoutCategoryIsIdentity) {
  const AdaptScenarioSpec spec = GenerateAdaptSpec(7);
  const ShrinkResult<AdaptScenarioSpec> result = ShrinkAdaptSpec(spec, "");
  EXPECT_EQ(result.runs, 0);
  EXPECT_EQ(FormatAdaptSpec(result.spec), FormatAdaptSpec(spec));
}

std::vector<std::filesystem::path> AdaptCorpusFiles() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(TABLEAU_REPRO_DIR) / "adapt";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(AdaptReproCorpus, HasSeedScenarios) {
  EXPECT_GE(AdaptCorpusFiles().size(), 2u);
}

TEST(AdaptReproCorpus, EveryReproducerReplaysClean) {
  const std::vector<std::filesystem::path> files = AdaptCorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] == '#') {
        continue;  // Leading comment records the pinned regime / violation.
      }
      text << line << "\n";
    }
    const auto spec = ParseAdaptSpec(text.str());
    ASSERT_TRUE(spec.has_value()) << path << ": malformed reproducer";
    const AdaptCheckOutcome outcome = RunAdaptScenario(*spec);
    EXPECT_TRUE(outcome.violations.empty())
        << path << ": " << outcome.violations.front();
  }
}

}  // namespace
}  // namespace tableau::check
