#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/rt/edf_sim.h"
#include "src/rt/hyperperiod.h"
#include "src/table/scheduling_table.h"
#include "tests/table_oracles.h"

namespace tableau {
namespace {

SchedulingTable SimpleTable() {
  // CPU 0: [0,100) -> 0, [100,250) -> 1, idle [250,300), [300,400) -> 0.
  // CPU 1: [50,150) -> 2.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 250}, {0, 300, 400}};
  per_cpu[1] = {{2, 50, 150}};
  return SchedulingTable::Build(400, std::move(per_cpu));
}

TEST(SchedulingTable, BuildSortsAndValidates) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{1, 100, 250}, {0, 0, 100}};  // Unsorted input.
  const SchedulingTable table = SchedulingTable::Build(400, std::move(per_cpu));
  EXPECT_EQ(table.Validate(), "");
  EXPECT_EQ(table.cpu(0).allocations[0].vcpu, 0);
  EXPECT_EQ(table.cpu(0).allocations[1].vcpu, 1);
}

TEST(SchedulingTable, LookupInsideAllocation) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 50);
  EXPECT_EQ(result.vcpu, 0);
  EXPECT_EQ(result.interval_end, 100);
}

TEST(SchedulingTable, LookupAtAllocationBoundary) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 100);
  EXPECT_EQ(result.vcpu, 1);
  EXPECT_EQ(result.interval_end, 250);
}

TEST(SchedulingTable, LookupInIdleGap) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(0, 260);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 300);
}

TEST(SchedulingTable, LookupIdleBeforeFirstAllocation) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(1, 10);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 50);
}

TEST(SchedulingTable, LookupIdleTail) {
  const SchedulingTable table = SimpleTable();
  const LookupResult result = table.Lookup(1, 200);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 400);
}

TEST(SchedulingTable, EmptyCpuIsAllIdle) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult result = table.Lookup(0, 123);
  EXPECT_EQ(result.vcpu, kIdleVcpu);
  EXPECT_EQ(result.interval_end, 1000);
}

TEST(SchedulingTable, SliceLengthIsShortestAllocationRoundedToPow2) {
  const SchedulingTable table = SimpleTable();
  // Shortest allocation is 100 on both CPUs; slices round down to 64 so the
  // lookup indexes with a shift.
  EXPECT_EQ(table.cpu(0).slice_length, 64);
  EXPECT_EQ(table.cpu(1).slice_length, 64);
}

TEST(SchedulingTable, SliceOverlapsAtMostTwoAllocations) {
  // Construct a table with many small allocations and check the invariant
  // structurally via Build's internal TABLEAU_CHECK plus Validate().
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = 0;
    VcpuId id = 0;
    while (t < 9000) {
      const TimeNs len = rng.UniformInt(50, 400);
      const TimeNs gap = rng.UniformInt(0, 100);
      if (t + gap + len > 10000) {
        break;
      }
      allocations.push_back(Allocation{id++ % 5, t + gap, t + gap + len});
      t += gap + len;
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const SchedulingTable table = SchedulingTable::Build(10000, std::move(per_cpu));
    EXPECT_EQ(table.Validate(), "");
  }
}

TEST(SchedulingTable, SliceLookupAgreesWithLinearEverywhere) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = rng.UniformInt(0, 50);
    VcpuId id = 0;
    while (t < 4500) {
      const TimeNs len = rng.UniformInt(100, 600);
      allocations.push_back(Allocation{id++ % 3, t, std::min<TimeNs>(t + len, 5000)});
      t += len + rng.UniformInt(0, 300);
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const SchedulingTable table = SchedulingTable::Build(5000, std::move(per_cpu));
    for (TimeNs offset = 0; offset < 5000; ++offset) {
      const LookupResult fast = table.Lookup(0, offset);
      const LookupResult slow = LookupLinear(table, 0, offset);
      ASSERT_EQ(fast.vcpu, slow.vcpu) << "offset " << offset;
      ASSERT_EQ(fast.interval_end, slow.interval_end) << "offset " << offset;
    }
  }
}

// Property: the sliced lookup agrees with the linear-scan oracle on random
// tables, probed at the hot-path edges — every slice boundary (one ns either
// side), the table wrap (offset length-1, then 0), and inside idle gaps.
TEST(SchedulingTable, LookupMatchesLinearAtSliceEdges) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const TimeNs length = rng.UniformInt(1000, 20000);
    std::vector<Allocation> allocations;
    TimeNs t = rng.UniformInt(0, 200);
    VcpuId id = 0;
    while (true) {
      const TimeNs len = rng.UniformInt(60, 900);
      if (t + len > length) {
        break;
      }
      allocations.push_back(Allocation{id++ % 6, t, t + len});
      t += len + rng.UniformInt(0, 250);
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const SchedulingTable table = SchedulingTable::Build(length, std::move(per_cpu));
    ASSERT_EQ(table.Validate(), "");
    const TimeNs slice = table.cpu(0).slice_length;
    std::vector<TimeNs> probes = {0, length - 1};
    for (TimeNs edge = slice; edge < length; edge += slice) {
      probes.push_back(edge - 1);
      probes.push_back(edge);
      if (edge + 1 < length) {
        probes.push_back(edge + 1);
      }
    }
    for (int extra = 0; extra < 64; ++extra) {
      probes.push_back(rng.UniformInt(0, length - 1));
    }
    for (const TimeNs offset : probes) {
      const LookupResult fast = table.Lookup(0, offset);
      const LookupResult slow = LookupLinear(table, 0, offset);
      ASSERT_EQ(fast.vcpu, slow.vcpu) << "offset " << offset << " trial " << trial;
      ASSERT_EQ(fast.interval_end, slow.interval_end) << "offset " << offset << " trial " << trial;
    }
  }
}

TEST(SchedulingTable, LookupWrapsFromLastNanosecondToZero) {
  // offset == length-1 must report an interval ending exactly at length so
  // the dispatcher's next decision lands on offset 0 of the next cycle.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 250}, {1, 750, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult last = table.Lookup(0, 999);
  EXPECT_EQ(last.vcpu, 1);
  EXPECT_EQ(last.interval_end, 1000);
  const LookupResult wrapped = table.Lookup(0, 0);
  EXPECT_EQ(wrapped.vcpu, 0);
  EXPECT_EQ(wrapped.interval_end, 250);
}

TEST(SchedulingTable, SingleSliceTable) {
  // One allocation spanning the whole table -> a single slice (the slice
  // length equals the table length).
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{3, 0, 1024}};  // 1024 is a power of two: 1 slice.
  const SchedulingTable table = SchedulingTable::Build(1024, std::move(per_cpu));
  ASSERT_EQ(table.Validate(), "");
  EXPECT_EQ(table.cpu(0).num_slices(), 1u);
  for (const TimeNs offset : {TimeNs{0}, TimeNs{512}, TimeNs{1023}}) {
    const LookupResult fast = table.Lookup(0, offset);
    const LookupResult slow = LookupLinear(table, 0, offset);
    EXPECT_EQ(fast.vcpu, slow.vcpu);
    EXPECT_EQ(fast.interval_end, slow.interval_end);
  }
}

TEST(SchedulingTable, CpusOf) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(CpusOf(table, 0), (std::vector<int>{0}));
  EXPECT_EQ(CpusOf(table, 2), (std::vector<int>{1}));
  EXPECT_TRUE(CpusOf(table, 99).empty());
}

TEST(SchedulingTable, TotalService) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(TotalService(table, 0), 200);
  EXPECT_EQ(TotalService(table, 1), 150);
  EXPECT_EQ(TotalService(table, 2), 100);
  EXPECT_EQ(TotalService(table, 99), 0);
}

TEST(SchedulingTable, MaxBlackoutSimple) {
  const SchedulingTable table = SimpleTable();
  // vCPU 0: service [0,100) and [300,400); gap 200 inside, wrap gap 0.
  EXPECT_EQ(MaxBlackout(table, 0), 200);
  // vCPU 1: [100,250): wrap gap = 150 + 100 = 250.
  EXPECT_EQ(MaxBlackout(table, 1), 250);
  // Unknown vCPU: never served.
  EXPECT_EQ(MaxBlackout(table, 99), 400);
}

TEST(SchedulingTable, MaxBlackoutAcrossCpus) {
  // A split vCPU served on two CPUs back to back has no blackout between.
  std::vector<std::vector<Allocation>> per_cpu(2);
  per_cpu[0] = {{0, 0, 100}};
  per_cpu[1] = {{0, 100, 200}};
  const SchedulingTable table = SchedulingTable::Build(400, std::move(per_cpu));
  EXPECT_EQ(MaxBlackout(table, 0), 200);  // Only the wrap gap [200, 400+0).
}

TEST(SchedulingTable, ValidateDetectsConcurrentAllocation) {
  const auto validate = [](std::vector<std::vector<Allocation>> per_cpu) {
    return SchedulingTable::Build(400, std::move(per_cpu)).Validate();
  };
  // Same vCPU overlapping in time on CPU 1.
  EXPECT_EQ(validate({{{0, 0, 100}}, {{0, 50, 150}}}),
            "vcpu 0 allocated on two pCPUs concurrently");
  // Pieces that only touch hand the vCPU from one pCPU to the next.
  EXPECT_EQ(validate({{{0, 0, 100}}, {{0, 100, 200}}}), "");
  // Three pCPUs: only the first and third pieces overlap.
  EXPECT_EQ(validate({{{4, 0, 100}}, {{4, 200, 300}}, {{4, 50, 150}}}),
            "vcpu 4 allocated on two pCPUs concurrently");
  // Two violators: the lower id is named, although vCPU 7's overlap comes
  // first in time and first in each pCPU's list.
  EXPECT_EQ(validate({{{7, 0, 100}, {3, 250, 350}}, {{7, 50, 150}, {3, 300, 400}}}),
            "vcpu 3 allocated on two pCPUs concurrently");
}

// Reference for Validate: per vCPU, a sweep over its start and end events
// across every pCPU (ends before starts at one instant), flagging depth 2.
std::string ValidateReference(const SchedulingTable& table) {
  struct Event {
    TimeNs time;
    int delta;  // +1 start, -1 end.
  };
  std::map<VcpuId, std::vector<Event>> events;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      events[alloc.vcpu].push_back(Event{alloc.start, +1});
      events[alloc.vcpu].push_back(Event{alloc.end, -1});
    }
  }
  for (auto& [vcpu, list] : events) {
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.delta < b.delta;
    });
    int depth = 0;
    for (const Event& e : list) {
      depth += e.delta;
      if (depth > 1) {
        return "vcpu " + std::to_string(vcpu) + " allocated on two pCPUs concurrently";
      }
    }
  }
  return "";
}

// Random per-pCPU allocation lists on a 10 ns grid of a 1000 ns table, each
// list free of overlap. Every vCPU may run on 1-3 of the pCPUs, so pieces on
// different pCPUs touch, nest and start together often; `max_gap` sets how
// densely the lists are packed.
std::vector<std::vector<Allocation>> RandomPerCpu(Rng& rng, int num_cpus, int num_vcpus,
                                                  TimeNs max_gap) {
  std::vector<std::vector<VcpuId>> allowed(static_cast<std::size_t>(num_cpus));
  for (VcpuId vcpu = 0; vcpu < num_vcpus; ++vcpu) {
    const auto spread = rng.UniformInt(1, std::min(3, num_cpus));
    std::vector<int> cpus(static_cast<std::size_t>(num_cpus));
    for (int c = 0; c < num_cpus; ++c) {
      cpus[static_cast<std::size_t>(c)] = c;
    }
    for (std::int64_t k = 0; k < spread; ++k) {
      const auto pick = static_cast<std::size_t>(rng.UniformInt(k, num_cpus - 1));
      std::swap(cpus[static_cast<std::size_t>(k)], cpus[pick]);
      allowed[static_cast<std::size_t>(cpus[static_cast<std::size_t>(k)])].push_back(vcpu);
    }
  }
  std::vector<std::vector<Allocation>> per_cpu(static_cast<std::size_t>(num_cpus));
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    if (allowed[c].empty()) {
      continue;
    }
    TimeNs t = 0;
    while (true) {
      const TimeNs start = t + 10 * rng.UniformInt(0, max_gap / 10);
      const TimeNs end = start + 10 * rng.UniformInt(1, 8);
      if (end > 1000) {
        break;
      }
      const auto vcpu = allowed[c][static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(allowed[c].size()) - 1))];
      per_cpu[c].push_back(Allocation{vcpu, start, end});
      t = end;
    }
  }
  return per_cpu;
}

TEST(SchedulingTable, ValidateMatchesReferenceOnRandomTables) {
  Rng rng(33);
  int valid = 0;
  int touching = 0;
  int nested = 0;
  int equal_start = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int num_cpus = static_cast<int>(rng.UniformInt(2, 6));
    const int num_vcpus = static_cast<int>(rng.UniformInt(2, 40));
    const SchedulingTable table = SchedulingTable::Build(
        1000, RandomPerCpu(rng, num_cpus, num_vcpus, 10 * rng.UniformInt(0, 80)));
    const std::string expected = ValidateReference(table);
    ASSERT_EQ(table.Validate(), expected) << "trial " << trial;
    valid += expected.empty() ? 1 : 0;
    // Coverage of the cases the check must tell apart, over pieces of one
    // vCPU on different pCPUs.
    for (int a = 0; a < num_cpus; ++a) {
      for (int b = 0; b < num_cpus; ++b) {
        for (const Allocation& x : table.cpu(a).allocations) {
          for (const Allocation& y : table.cpu(b).allocations) {
            if (a == b || x.vcpu != y.vcpu) {
              continue;
            }
            touching += x.end == y.start ? 1 : 0;
            nested += x.start < y.start && y.end < x.end ? 1 : 0;
            equal_start += a < b && x.start == y.start ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(valid, 100);
  EXPECT_LT(valid, 500);
  EXPECT_GT(touching, 0);
  EXPECT_GT(nested, 0);
  EXPECT_GT(equal_start, 0);
}

TEST(SchedulingTable, RebuildMatchesBuild) {
  Rng rng(34);
  for (int trial = 0; trial < 200; ++trial) {
    const int num_cpus = static_cast<int>(rng.UniformInt(2, 6));
    const int num_vcpus = static_cast<int>(rng.UniformInt(2, 40));
    const std::vector<std::vector<Allocation>> before =
        RandomPerCpu(rng, num_cpus, num_vcpus, 10 * rng.UniformInt(0, 40));
    const SchedulingTable previous = SchedulingTable::Build(1000, before);
    // Trial 0 changes every pCPU, trial 1 none; later trials mix, and some
    // changed pCPUs become empty.
    const std::vector<std::vector<Allocation>> fresh =
        RandomPerCpu(rng, num_cpus, num_vcpus, 10 * rng.UniformInt(0, 40));
    std::vector<bool> changed(static_cast<std::size_t>(num_cpus));
    std::vector<std::vector<Allocation>> after = before;
    std::vector<std::vector<Allocation>> changed_only(static_cast<std::size_t>(num_cpus));
    for (std::size_t c = 0; c < changed.size(); ++c) {
      changed[c] = trial == 0 || (trial > 1 && rng.UniformInt(0, 1) == 1);
      if (changed[c]) {
        after[c] = rng.UniformInt(0, 3) == 0 ? std::vector<Allocation>{} : fresh[c];
        changed_only[c] = after[c];
      }
    }
    const SchedulingTable derived = previous.Rebuild(changed, std::move(changed_only));
    ASSERT_EQ(derived.Serialize(), SchedulingTable::Build(1000, after).Serialize())
        << "trial " << trial;
    for (int c = 0; c < num_cpus; ++c) {
      if (!changed[static_cast<std::size_t>(c)]) {
        continue;
      }
      for (const Allocation& alloc : derived.cpu(c).allocations) {
        for (const TimeNs edge : {alloc.start, alloc.end}) {
          for (TimeNs offset = edge - 1; offset <= edge + 1; ++offset) {
            if (offset < 0 || offset >= derived.length()) {
              continue;
            }
            const LookupResult fast = derived.Lookup(c, offset);
            const LookupResult slow = LookupLinear(derived, c, offset);
            ASSERT_EQ(fast.vcpu, slow.vcpu) << "trial " << trial << " offset " << offset;
            ASSERT_EQ(fast.interval_end, slow.interval_end)
                << "trial " << trial << " offset " << offset;
          }
        }
      }
    }
  }
}

TEST(SchedulingTable, ChangedValidateMatchesWholeTableOnRebuilds) {
  // Validate(changed) on a table Rebuilt from a valid one must return
  // Validate()'s string, also when the rebuilt pCPUs overlap pieces their
  // vCPUs hold on unchanged pCPUs.
  Rng rng(36);
  int rebuilt = 0;
  int violations = 0;
  int spread_valid = 0;
  while (rebuilt < 400) {
    const int num_cpus = static_cast<int>(rng.UniformInt(2, 6));
    const int num_vcpus = static_cast<int>(rng.UniformInt(2, 30));
    const SchedulingTable previous = SchedulingTable::Build(
        1000, RandomPerCpu(rng, num_cpus, num_vcpus, 10 * rng.UniformInt(0, 80)));
    if (!previous.Validate().empty()) {
      continue;
    }
    std::vector<std::vector<Allocation>> fresh =
        RandomPerCpu(rng, num_cpus, num_vcpus, 10 * rng.UniformInt(0, 80));
    std::vector<bool> changed(static_cast<std::size_t>(num_cpus));
    for (std::size_t c = 0; c < changed.size(); ++c) {
      changed[c] = rng.UniformInt(0, 2) == 0;
    }
    const SchedulingTable derived = previous.Rebuild(changed, std::move(fresh));
    const std::string expected = derived.Validate();
    ASSERT_EQ(derived.Validate(changed), expected) << "table " << rebuilt;
    ++rebuilt;
    violations += expected.empty() ? 0 : 1;
    if (expected.empty()) {
      std::vector<VcpuId> listed;
      for (int c = 0; c < num_cpus; ++c) {
        const std::vector<VcpuId>& locals = derived.cpu(c).local_vcpus;
        listed.insert(listed.end(), locals.begin(), locals.end());
      }
      std::sort(listed.begin(), listed.end());
      spread_valid += std::adjacent_find(listed.begin(), listed.end()) != listed.end() ? 1 : 0;
    }
  }
  // Both verdicts occur, and valid tables with vCPUs on several pCPUs too.
  EXPECT_GT(violations, 40);
  EXPECT_LT(violations, 360);
  EXPECT_GT(spread_valid, 20);
}

TEST(SchedulingTable, RebuildSharesUnchangedCpuTables) {
  Rng rng(35);
  constexpr int kCpus = 5;
  const std::vector<std::vector<Allocation>> before = RandomPerCpu(rng, kCpus, 12, 200);
  const std::vector<std::vector<Allocation>> fresh = RandomPerCpu(rng, kCpus, 12, 200);
  const std::vector<bool> changed = {false, true, false, false, true};
  std::vector<std::vector<Allocation>> after = before;
  for (std::size_t c = 0; c < changed.size(); ++c) {
    if (changed[c]) {
      after[c] = fresh[c];
    }
  }
  std::optional<SchedulingTable> previous = SchedulingTable::Build(1000, before);
  const SchedulingTable rebuilt = previous->Rebuild(changed, fresh);
  for (int c = 0; c < kCpus; ++c) {
    if (changed[static_cast<std::size_t>(c)]) {
      EXPECT_NE(&rebuilt.cpu(c), &previous->cpu(c)) << "cpu " << c;
    } else {
      EXPECT_EQ(&rebuilt.cpu(c), &previous->cpu(c)) << "cpu " << c;
    }
  }
  // A copied table shares every pCPU with its source.
  const SchedulingTable copy = rebuilt;
  for (int c = 0; c < kCpus; ++c) {
    EXPECT_EQ(&copy.cpu(c), &rebuilt.cpu(c)) << "cpu " << c;
  }

  // The carried pCPUs outlive the table they came from.
  previous.reset();
  EXPECT_EQ(rebuilt.Serialize(), SchedulingTable::Build(1000, after).Serialize());
  for (int c = 0; c < kCpus; ++c) {
    for (TimeNs offset = 0; offset < rebuilt.length(); offset += 7) {
      const LookupResult fast = rebuilt.Lookup(c, offset);
      const LookupResult slow = LookupLinear(rebuilt, c, offset);
      ASSERT_EQ(fast.vcpu, slow.vcpu) << "cpu " << c << " offset " << offset;
      ASSERT_EQ(fast.interval_end, slow.interval_end) << "cpu " << c << " offset " << offset;
    }
  }
}

TEST(SchedulingTableDeathTest, RebuildRejectsOverlapAndCpuCountMismatch) {
  const SchedulingTable previous = SimpleTable();
  std::vector<std::vector<Allocation>> overlapping(2);
  overlapping[1] = {{0, 0, 200}, {1, 100, 300}};
  EXPECT_DEATH(previous.Rebuild({false, true}, std::move(overlapping)), "bad allocation");
  EXPECT_DEATH(previous.Rebuild({true, true, true}, std::vector<std::vector<Allocation>>(3)),
               "TABLEAU_CHECK failed");
}

TEST(SchedulingTable, SerializeRoundTrip) {
  const SchedulingTable table = SimpleTable();
  const std::vector<std::uint8_t> bytes = table.Serialize();
  const std::optional<SchedulingTable> copy = SchedulingTable::Deserialize(bytes);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->Serialize(), bytes);
  EXPECT_EQ(copy->length(), table.length());
  EXPECT_EQ(copy->num_cpus(), table.num_cpus());
  for (int c = 0; c < table.num_cpus(); ++c) {
    EXPECT_EQ(copy->cpu(c).allocations, table.cpu(c).allocations);
    EXPECT_EQ(copy->cpu(c).slice_length, table.cpu(c).slice_length);
    EXPECT_EQ(copy->cpu(c).local_vcpus, table.cpu(c).local_vcpus);
  }
  // And lookups behave identically.
  for (TimeNs offset = 0; offset < 400; offset += 7) {
    EXPECT_EQ(copy->Lookup(0, offset).vcpu, table.Lookup(0, offset).vcpu);
  }
}

TEST(SchedulingTable, SerializedSizeGrowsWithAllocations) {
  std::vector<std::vector<Allocation>> small(1);
  small[0] = {{0, 0, 1000}};
  std::vector<std::vector<Allocation>> big(1);
  for (TimeNs t = 0; t < 1000; t += 100) {
    big[0].push_back({static_cast<VcpuId>(t / 100), t, t + 100});
  }
  const auto small_size = SchedulingTable::Build(1000, std::move(small)).SerializedSizeBytes();
  const auto big_size = SchedulingTable::Build(1000, std::move(big)).SerializedSizeBytes();
  EXPECT_GT(big_size, small_size);
}

TEST(SchedulingTable, LocalVcpusDerived) {
  const SchedulingTable table = SimpleTable();
  EXPECT_EQ(table.cpu(0).local_vcpus, (std::vector<VcpuId>{0, 1}));
  EXPECT_EQ(table.cpu(1).local_vcpus, (std::vector<VcpuId>{2}));
}

TEST(SchedulingTable, LookupAtLastNanosecond) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 1000}};  // Allocation covers the whole table.
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  const LookupResult result = table.Lookup(0, 999);
  EXPECT_EQ(result.vcpu, 0);
  EXPECT_EQ(result.interval_end, 1000);
}

TEST(SchedulingTable, AllocationEndingExactlyAtLength) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 400}, {1, 600, 1000}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  EXPECT_EQ(table.Validate(), "");
  EXPECT_EQ(table.Lookup(0, 999).vcpu, 1);
  EXPECT_EQ(table.Lookup(0, 500).vcpu, kIdleVcpu);
  EXPECT_EQ(table.Lookup(0, 500).interval_end, 600);
}

TEST(SchedulingTable, SliceCountNeverExceedsCeil) {
  // Slice count is ceil(length / slice_length) even when the shortest
  // allocation does not divide the table length.
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 300}, {1, 500, 800}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  EXPECT_EQ(table.cpu(0).slice_length, 256);  // Pow2 floor of the shortest (300).
  EXPECT_EQ(table.cpu(0).num_slices(), 4u);   // ceil(1000/256).
}

TEST(SchedulingTableDeathTest, BuildRejectsOverlap) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}, {1, 400, 800}};
  EXPECT_DEATH(SchedulingTable::Build(1000, std::move(per_cpu)), "bad allocation");
}

TEST(SchedulingTableDeathTest, BuildRejectsOutOfBounds) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 500, 1200}};
  EXPECT_DEATH(SchedulingTable::Build(1000, std::move(per_cpu)), "bad allocation");
}

TEST(SchedulingTable, DeserializeRejectsCorruptMagic) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  auto bytes = table.Serialize();
  bytes[0] ^= 0xff;
  EXPECT_FALSE(SchedulingTable::Deserialize(bytes).has_value());
}

TEST(SchedulingTable, DeserializeRejectsTruncation) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 500}};
  const SchedulingTable table = SchedulingTable::Build(1000, std::move(per_cpu));
  auto bytes = table.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(SchedulingTable::Deserialize(bytes).has_value());
}

// Hand-encodes a one-pCPU wire-format v1 blob: {magic, version, length,
// pCPUs}, then {allocations, slice length, slices, locals}, the allocations,
// the per-slice {first, second} pairs and the local vCPUs.
std::vector<std::uint8_t> OneCpuV1Blob(TimeNs length, TimeNs slice_length,
                                       const std::vector<Allocation>& allocations,
                                       const std::vector<std::pair<int, int>>& pairs,
                                       const std::vector<VcpuId>& locals) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](auto value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(value));
  };
  put(std::uint32_t{0x53'4c'42'54});  // "TBLS".
  put(std::uint32_t{1});
  put(length);
  put(std::uint32_t{1});
  put(static_cast<std::uint32_t>(allocations.size()));
  put(slice_length);
  put(static_cast<std::uint32_t>(pairs.size()));
  put(static_cast<std::uint32_t>(locals.size()));
  for (const Allocation& alloc : allocations) {
    put(alloc.vcpu);
    put(alloc.start);
    put(alloc.end);
  }
  for (const auto& [first, second] : pairs) {
    put(std::int32_t{first});
    put(std::int32_t{second});
  }
  for (const VcpuId vcpu : locals) {
    put(vcpu);
  }
  return out;
}

TEST(SchedulingTable, DeserializeRejectsMalformedBlobs) {
  std::vector<std::uint8_t> trailing = SimpleTable().Serialize();
  trailing.push_back(0);
  EXPECT_FALSE(SchedulingTable::Deserialize(trailing).has_value());

  // A 1000 ns table with 256 ns slices has four of them.
  const auto loads = [](const std::vector<Allocation>& allocations, std::size_t num_slices) {
    const std::vector<std::pair<int, int>> pairs(num_slices, {-1, -1});
    return SchedulingTable::Deserialize(OneCpuV1Blob(1000, 256, allocations, pairs, {}))
        .has_value();
  };
  EXPECT_TRUE(loads({{0, 0, 300}, {1, 500, 800}}, 4));
  EXPECT_FALSE(loads({{0, 0, 500}, {1, 400, 800}}, 4));  // Overlapping allocations.
  EXPECT_FALSE(loads({{0, 500, 1200}}, 4));              // Ends past the table.
  EXPECT_FALSE(loads({{0, 0, 300}, {1, 500, 800}}, 5));  // Slice count != ceil(1000 / 256).

  // A 60-byte blob (headers and one allocation) stating 1 << 20 allocations
  // is rejected before anything is sized from the count.
  std::vector<std::uint8_t> huge = OneCpuV1Blob(1000, 256, {{0, 0, 300}}, {}, {});
  ASSERT_EQ(huge.size(), 60u);
  const std::uint32_t count = 1u << 20;
  std::memcpy(huge.data() + 20, &count, sizeof(count));
  EXPECT_FALSE(SchedulingTable::Deserialize(huge).has_value());
}

// A v1 blob from before tables used power-of-two slices loads, and is
// rebuilt with them.
TEST(SchedulingTable, DeserializeRebuildsNonPow2V1Blob) {
  // Slice length 100 (the shortest allocation, not rounded) and each
  // slice's {first, second} overlapping allocation, as that layout wrote them.
  const std::optional<SchedulingTable> table = SchedulingTable::Deserialize(
      OneCpuV1Blob(400, 100, {{0, 0, 100}, {1, 100, 250}, {0, 300, 400}},
                   {{0, -1}, {1, -1}, {1, -1}, {2, -1}}, {0, 1}));
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->cpu(0).slice_length, 64);
  EXPECT_EQ(table->Validate(), "");
  for (TimeNs offset = 0; offset < 400; ++offset) {
    const LookupResult fast = table->Lookup(0, offset);
    const LookupResult slow = LookupLinear(*table, 0, offset);
    ASSERT_EQ(fast.vcpu, slow.vcpu) << "offset " << offset;
    ASSERT_EQ(fast.interval_end, slow.interval_end) << "offset " << offset;
  }
}

// ---------- Coalescing ----------

TEST(Coalesce, MergesContiguousSameVcpu) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {0, 100, 200}, {1, 200, 300}};
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, nullptr);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (Allocation{0, 0, 200}));
}

TEST(Coalesce, AbsorbsSubThresholdIntoPredecessor) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 120}, {2, 120, 220}};  // 20 < threshold 50.
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  ASSERT_EQ(result[0].size(), 2u);
  EXPECT_EQ(result[0][0], (Allocation{0, 0, 120}));  // Predecessor absorbed the sliver.
  EXPECT_EQ(result[0][1], (Allocation{2, 120, 220}));
  ASSERT_EQ(donated.size(), 1u);
  EXPECT_EQ(donated[0].first, 1);
  EXPECT_EQ(donated[0].second, 20);
}

TEST(Coalesce, IsolatedSliverBecomesIdle) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 150, 170}};  // Isolated 20ns sliver.
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  ASSERT_EQ(result[0].size(), 1u);
  EXPECT_EQ(donated.size(), 1u);
}

TEST(Coalesce, KeepsEverythingAboveThreshold) {
  std::vector<std::vector<Allocation>> per_cpu(1);
  per_cpu[0] = {{0, 0, 100}, {1, 100, 200}, {2, 250, 350}};
  std::vector<std::pair<VcpuId, TimeNs>> donated;
  const auto result = CoalesceAllocations(std::move(per_cpu), 50, &donated);
  EXPECT_EQ(result[0].size(), 3u);
  EXPECT_TRUE(donated.empty());
}

TEST(Coalesce, PreservesTotalAllocatedTimeWhenAdjacent) {
  // When all slivers are adjacent to a neighbour, total allocated time is
  // conserved (only ownership changes).
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Allocation> allocations;
    TimeNs t = 0;
    VcpuId id = 0;
    while (t < 9000) {
      const TimeNs len = rng.UniformInt(10, 300);
      allocations.push_back(Allocation{id++ % 4, t, t + len});
      t += len;
    }
    TimeNs total_before = 0;
    for (const Allocation& alloc : allocations) {
      total_before += alloc.Length();
    }
    std::vector<std::vector<Allocation>> per_cpu = {allocations};
    const auto result = CoalesceAllocations(std::move(per_cpu), 50, nullptr);
    TimeNs total_after = 0;
    for (const Allocation& alloc : result[0]) {
      total_after += alloc.Length();
    }
    // The first allocation may be an isolated sliver (no predecessor); all
    // other slivers are absorbed. Tolerate one dropped leading sliver.
    EXPECT_GE(total_after, total_before - 50);
  }
}

}  // namespace
}  // namespace tableau
