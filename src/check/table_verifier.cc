#include "src/check/table_verifier.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>

namespace tableau::check {
namespace {

std::string Describe(const char* what, VcpuId vcpu, long long got, long long bound) {
  std::ostringstream out;
  out << what << " for vcpu " << vcpu << ": " << got << " vs bound " << bound;
  return out.str();
}

// Structural re-check from first principles: ordering, bounds, no per-core
// overlap, no idle-vCPU allocations, and (when coalescing applies) no
// sub-threshold survivors.
void CheckStructure(const SchedulingTable& table, const VerifyOptions& options,
                    std::vector<std::string>* violations) {
  const TimeNs length = table.length();
  if (length <= 0) {
    violations->push_back("table length is not positive");
    return;
  }
  if (options.expected_length != 0 && length != options.expected_length) {
    std::ostringstream out;
    out << "table length " << length << " != expected hyperperiod "
        << options.expected_length;
    violations->push_back(out.str());
  }
  for (int c = 0; c < table.num_cpus(); ++c) {
    const CpuTable& cpu = table.cpu(c);
    TimeNs prev_end = 0;
    for (std::size_t i = 0; i < cpu.allocations.size(); ++i) {
      const Allocation& alloc = cpu.allocations[i];
      // Formatted only for a violation: most tables have none.
      const auto where = [&] {
        std::ostringstream out;
        out << "cpu " << c << " allocation " << i << " [" << alloc.start << ", "
            << alloc.end << ") vcpu " << alloc.vcpu;
        return out.str();
      };
      if (alloc.vcpu == kIdleVcpu) {
        violations->push_back(where() + ": allocation for the idle vCPU");
      }
      if (alloc.start < 0 || alloc.end > length || alloc.start >= alloc.end) {
        violations->push_back(where() + ": out of bounds or empty");
        continue;
      }
      if (alloc.start < prev_end) {
        violations->push_back(where() + ": overlaps the previous allocation");
      }
      prev_end = alloc.end;
      if (options.coalesce_threshold > 0 &&
          alloc.end - alloc.start < options.coalesce_threshold) {
        violations->push_back(where() + ": sub-threshold allocation survived coalescing");
      }
    }
  }
}

// Reference lookup: the first allocation whose end lies past `offset`
// either holds it or ends the idle gap it falls in. `*next` is a forward
// cursor over the allocations (sorted and non-overlapping, from the
// structure check), so the offsets one cursor answers must not decrease.
// Shares nothing with Lookup and its slice floors.
LookupResult ReferenceLookup(const std::vector<Allocation>& allocations, TimeNs length,
                             TimeNs offset, std::size_t* next) {
  while (*next < allocations.size() && allocations[*next].end <= offset) {
    ++*next;
  }
  if (*next == allocations.size()) {
    return LookupResult{kIdleVcpu, length};
  }
  const Allocation& alloc = allocations[*next];
  if (offset < alloc.start) {
    return LookupResult{kIdleVcpu, alloc.start};
  }
  return LookupResult{alloc.vcpu, alloc.end};
}

// The slice table must agree with the reference lookup everywhere.
// Exhaustive agreement is implied by agreement at every discontinuity, so
// sample each allocation edge (and one interior point) plus each gap. Each
// kind of probe rises with the allocation index, so each has its own
// reference cursor and a pCPU costs O(allocations).
void CheckSliceAgreement(const SchedulingTable& table,
                         std::vector<std::string>* violations) {
  const TimeNs length = table.length();
  for (int c = 0; c < table.num_cpus(); ++c) {
    const std::vector<Allocation>& allocations = table.cpu(c).allocations;
    const auto probe = [&](TimeNs offset, std::size_t* cursor) {
      const LookupResult fast = table.Lookup(c, offset);
      const LookupResult slow = ReferenceLookup(allocations, length, offset, cursor);
      if (fast.vcpu != slow.vcpu || fast.interval_end != slow.interval_end) {
        std::ostringstream out;
        out << "cpu " << c << " offset " << offset << ": slice lookup (vcpu "
            << fast.vcpu << ", end " << fast.interval_end
            << ") disagrees with linear lookup (vcpu " << slow.vcpu << ", end "
            << slow.interval_end << ")";
        violations->push_back(out.str());
      }
    };
    // One cursor per probe kind: the table's first and last instant, and
    // each allocation's start, midpoint, last instant, end, and the instant
    // before its start.
    std::size_t cursors[7] = {};
    probe(0, &cursors[0]);
    probe(length - 1, &cursors[1]);
    for (const Allocation& alloc : allocations) {
      probe(alloc.start, &cursors[2]);
      probe(alloc.start + (alloc.end - alloc.start) / 2, &cursors[3]);
      probe(alloc.end - 1, &cursors[4]);
      if (alloc.end < length) {
        probe(alloc.end, &cursors[5]);
      }
      if (alloc.start > 0) {
        probe(alloc.start - 1, &cursors[6]);
      }
    }
  }
}

// One allocation tagged with its pCPU.
struct Piece {
  VcpuId vcpu;
  TimeNs start;
  TimeNs end;
  int cpu;
};

// Every allocation of the table, sorted by (vcpu, start, cpu): each vCPU's
// pieces form one run, in time order.
std::vector<Piece> PiecesByVcpu(const SchedulingTable& table) {
  std::vector<Piece> pieces;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      pieces.push_back(Piece{alloc.vcpu, alloc.start, alloc.end, c});
    }
  }
  std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
    if (a.vcpu != b.vcpu) return a.vcpu < b.vcpu;
    if (a.start != b.start) return a.start < b.start;
    return a.cpu < b.cpu;
  });
  return pieces;
}

// No vCPU may be allocated on two cores at the same instant (a vCPU is one
// thread of execution). Checked across the whole table, for every vCPU.
void CheckCrossCoreExclusion(const std::vector<Piece>& pieces,
                             std::vector<std::string>* violations) {
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    const Piece& prev = pieces[i - 1];
    const Piece& piece = pieces[i];
    if (piece.vcpu == prev.vcpu && piece.start < prev.end) {
      std::ostringstream out;
      out << "vcpu " << piece.vcpu << " allocated concurrently on cpu " << prev.cpu
          << " and cpu " << piece.cpu << " at time " << piece.start;
      violations->push_back(out.str());
    }
  }
}

// Supply received by the vCPU inside [window_start, window_end), from its
// pieces in time order. Windows come in increasing order: `*skip` moves past
// the leading pieces that end by window_start, which end before every later
// window too.
TimeNs SupplyIn(std::span<const Piece> pieces, TimeNs window_start, TimeNs window_end,
                std::size_t* skip) {
  while (*skip < pieces.size() && pieces[*skip].end <= window_start) {
    ++*skip;
  }
  TimeNs supply = 0;
  for (std::size_t i = *skip; i < pieces.size() && pieces[i].start < window_end; ++i) {
    if (pieces[i].end > window_start) {
      supply += std::min(pieces[i].end, window_end) - std::max(pieces[i].start, window_start);
    }
  }
  return supply;
}

// Longest cyclic gap in the vCPU's service across all cores.
TimeNs MaxGap(std::span<const Piece> pieces, TimeNs length) {
  if (pieces.empty()) {
    return length;
  }
  TimeNs worst = 0;
  TimeNs covered_until = pieces.front().start;
  TimeNs first_start = pieces.front().start;
  for (const Piece& piece : pieces) {
    if (piece.start > covered_until) {
      worst = std::max(worst, piece.start - covered_until);
    }
    covered_until = std::max(covered_until, piece.end);
  }
  // Wrap-around gap: from the last covered instant, through the table end,
  // to the first allocation of the next round.
  worst = std::max(worst, length - covered_until + first_start);
  return worst;
}

// Number of distinct pCPUs the pieces lie on.
long long CpuCount(std::span<const Piece> pieces) {
  std::vector<int> cpus;
  for (const Piece& piece : pieces) {
    cpus.push_back(piece.cpu);
  }
  std::sort(cpus.begin(), cpus.end());
  return std::unique(cpus.begin(), cpus.end()) - cpus.begin();
}

// Checks one contract against `pieces`, its vCPU's run of PiecesByVcpu
// (empty when the vCPU has no allocation).
void CheckContract(TimeNs length, std::span<const Piece> pieces,
                   const VcpuContract& contract, const VerifyOptions& options,
                   std::vector<std::string>* violations) {
  if (contract.dedicated) {
    TimeNs supply = 0;
    for (const Piece& piece : pieces) {
      supply += piece.end - piece.start;
    }
    if (supply != length) {
      violations->push_back(Describe("dedicated vcpu does not own a full core",
                                     contract.vcpu, supply, length));
    }
    return;
  }

  if (contract.period <= 0 || contract.cost <= 0) {
    std::ostringstream out;
    out << "vcpu " << contract.vcpu << ": malformed contract (C=" << contract.cost
        << ", T=" << contract.period << ")";
    violations->push_back(out.str());
    return;
  }
  if (length % contract.period != 0) {
    violations->push_back(Describe("period does not divide the table length",
                                   contract.vcpu, contract.period, length));
    return;
  }

  const TimeNs windows = length / contract.period;
  const TimeNs donated = std::max<TimeNs>(contract.donated_ns, 0);

  // Window supply: every aligned period window must carry the full cost,
  // less what coalescing provably donated away; and the donation accounting
  // must cover the summed shortfall exactly.
  TimeNs total_shortfall = 0;
  std::size_t skip = 0;
  for (TimeNs k = 0; k < windows; ++k) {
    const TimeNs window_start = k * contract.period;
    const TimeNs supply =
        SupplyIn(pieces, window_start, window_start + contract.period, &skip);
    if (supply < contract.cost - donated) {
      std::ostringstream out;
      out << "vcpu " << contract.vcpu << " window " << k << " [" << window_start << ", "
          << window_start + contract.period << "): supply " << supply << " < C "
          << contract.cost << " - donated " << donated;
      violations->push_back(out.str());
    }
    total_shortfall += std::max<TimeNs>(0, contract.cost - supply);
  }
  if (total_shortfall > donated) {
    violations->push_back(Describe("summed window shortfall exceeds the donation account",
                                   contract.vcpu, total_shortfall, donated));
  }

  // Donation budget: coalescing removes sub-threshold slivers; a period
  // window's job fragments into at most two boundary slivers, so more than
  // 2 * threshold of donation per window means the planner shaved off whole
  // jobs, not slivers.
  if (options.coalesce_threshold > 0 &&
      donated > windows * 2 * options.coalesce_threshold) {
    violations->push_back(Describe("donation exceeds the coalescing sliver budget",
                                   contract.vcpu, donated,
                                   windows * 2 * options.coalesce_threshold));
  }

  // Blackout: 2(T - C) from the EDF supply-bound argument (paper Sec. 4),
  // plus slack for coalescing — a dropped sliver merges the gaps on both of
  // its sides, so the bound stretches by the donated time plus one
  // threshold-sized sliver per adjacent gap.
  const TimeNs blackout_bound = 2 * (contract.period - contract.cost) +
                                (donated > 0 ? donated + 2 * options.coalesce_threshold : 0);
  const TimeNs blackout = MaxGap(pieces, length);
  if (blackout > blackout_bound) {
    violations->push_back(
        Describe("blackout exceeds 2(T - C) plus coalescing slack", contract.vcpu,
                 blackout, blackout_bound));
  }

  // C=D split legality: the split flag must match the table, and each piece
  // must be long enough to be enforceable. Cross-core exclusion (checked
  // globally) covers the "one core at a time" half of the contract.
  const long long cpus = CpuCount(pieces);
  if (contract.split && cpus < 2) {
    violations->push_back(Describe("split vcpu has allocations on fewer than two cores",
                                   contract.vcpu, cpus, 2));
  }
  if (!contract.split && cpus > 1) {
    violations->push_back(Describe("unsplit vcpu has allocations on more than one core",
                                   contract.vcpu, cpus, 1));
  }
}

}  // namespace

std::vector<std::string> VerifyTable(const SchedulingTable& table,
                                     const std::vector<VcpuContract>& contracts,
                                     const VerifyOptions& options) {
  std::vector<std::string> violations;
  CheckStructure(table, options, &violations);
  if (!violations.empty()) {
    // Structure is broken; the contract checks below would chase ghosts.
    return violations;
  }
  CheckSliceAgreement(table, &violations);
  const std::vector<Piece> pieces = PiecesByVcpu(table);
  CheckCrossCoreExclusion(pieces, &violations);
  for (const VcpuContract& contract : contracts) {
    const auto run = std::ranges::equal_range(pieces, contract.vcpu, {}, &Piece::vcpu);
    CheckContract(table.length(), {run.begin(), run.end()}, contract, options, &violations);
  }
  return violations;
}

std::vector<VcpuContract> ContractsOf(const PlanResult& plan) {
  std::vector<VcpuContract> contracts;
  contracts.reserve(plan.vcpus.size());
  for (const VcpuPlan& vcpu : plan.vcpus) {
    VcpuContract contract;
    contract.vcpu = vcpu.vcpu;
    contract.cost = vcpu.cost;
    contract.period = vcpu.period;
    contract.dedicated = vcpu.dedicated;
    contract.split = vcpu.split;
    contract.donated_ns = vcpu.donated_ns;
    contracts.push_back(contract);
  }
  return contracts;
}

std::vector<std::string> VerifyPlan(const PlanResult& plan, const PlannerConfig& config) {
  if (!plan.success) {
    return {"plan is not successful"};
  }
  VerifyOptions options;
  options.coalesce_threshold = config.coalesce_threshold;
  options.expected_length = kHyperperiodNs;
  return VerifyTable(plan.table, ContractsOf(plan), options);
}

void InstallPlannerVerification() {
  SetPlanAuditHook([](const PlanResult& plan, const PlannerConfig& config) {
    const std::vector<std::string> violations = VerifyPlan(plan, config);
    if (violations.empty()) {
      return;
    }
    std::fprintf(stderr,
                 "TableVerifier: %zu reservation-contract violation(s) in a "
                 "planner-produced table (%s, %zu vcpus):\n",
                 violations.size(), PlanMethodName(plan.method), plan.vcpus.size());
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "  - %s\n", violation.c_str());
    }
    std::abort();
  });
}

}  // namespace tableau::check
