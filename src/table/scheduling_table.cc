#include "src/table/scheduling_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"

namespace tableau {
namespace {

constexpr std::uint32_t kMagic = 0x53'4c'42'54;  // "TBLS" little-endian.
constexpr std::uint32_t kVersion = 1;

// Wire-format v1 record sizes: a pCPU header {allocations, slice length,
// slices, locals}, an allocation {vcpu, start, end}, a per-slice pair.
constexpr std::size_t kCpuHeaderBytes = 3 * sizeof(std::uint32_t) + sizeof(TimeNs);
constexpr std::size_t kAllocationBytes = sizeof(VcpuId) + 2 * sizeof(TimeNs);
constexpr std::size_t kSlicePairBytes = 2 * sizeof(std::int32_t);

template <typename T>
void Append(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

// Bounds-checked reader over a serialized table. Past the end, `ok` turns
// false and reads yield zero.
struct Reader {
  const std::vector<std::uint8_t>& in;
  std::size_t pos = 0;
  bool ok = true;

  std::size_t Remaining() const { return in.size() - pos; }

  // Consumes `count` records of `size` bytes each.
  bool Skip(std::uint64_t count, std::size_t size) {
    ok = ok && count <= Remaining() / size;
    pos = ok ? pos + count * size : in.size();
    return ok;
  }

  template <typename T>
  T Read() {
    T value{};
    if (Skip(1, sizeof(T))) {
      std::memcpy(&value, in.data() + pos - sizeof(T), sizeof(T));
    }
    return value;
  }
};

// ceil(length / slice_length) for positive operands, without the overflow
// CeilDiv would hit for a length near INT64_MAX (a blob may state one).
std::size_t SliceCount(TimeNs length, TimeNs slice_length) {
  return static_cast<std::size_t>((length - 1) / slice_length + 1);
}

// Sorts a pCPU's allocations by start time. Planner output arrives sorted
// (EDF emits time order), so check that first.
void SortByStart(std::vector<Allocation>& allocations) {
  const auto by_start = [](const Allocation& a, const Allocation& b) { return a.start < b.start; };
  if (!std::is_sorted(allocations.begin(), allocations.end(), by_start)) {
    std::sort(allocations.begin(), allocations.end(), by_start);
  }
}

// The ids listed more than once in `holders`, ascending. Given each pCPU's
// distinct vCPUs, these are the vCPUs holding time on two or more pCPUs.
std::vector<VcpuId> SpreadVcpus(std::vector<VcpuId> holders) {
  std::sort(holders.begin(), holders.end());
  std::vector<VcpuId> spread;
  for (std::size_t i = 1; i < holders.size(); ++i) {
    if (holders[i] == holders[i - 1] && (spread.empty() || spread.back() != holders[i])) {
      spread.push_back(holders[i]);
    }
  }
  return spread;
}

// Build's work for one pCPU (index `c`, for messages): sorts the list,
// aborts on overlap or bounds violations, and derives the rest. The list is
// trimmed to its size: a built CpuTable may be shared by every later table
// a delta solve derives, so slack left by its producer would outlive it.
std::shared_ptr<const CpuTable> BuildCpu(TimeNs length, std::size_t c,
                                         std::vector<Allocation> allocations) {
  auto built = std::make_shared<CpuTable>();
  CpuTable& cpu = *built;
  cpu.allocations = std::move(allocations);
  cpu.allocations.shrink_to_fit();
  SortByStart(cpu.allocations);
  TimeNs prev_end = 0;
  TimeNs min_len = length;
  std::vector<VcpuId> locals;
  locals.reserve(cpu.allocations.size());
  for (const Allocation& alloc : cpu.allocations) {
    TABLEAU_CHECK_MSG(alloc.start >= prev_end && alloc.end <= length &&
                          alloc.start < alloc.end,
                      "bad allocation [%lld,%lld) on cpu %zu",
                      static_cast<long long>(alloc.start),
                      static_cast<long long>(alloc.end), c);
    prev_end = alloc.end;
    min_len = std::min(min_len, alloc.Length());
    locals.push_back(alloc.vcpu);
  }
  std::sort(locals.begin(), locals.end());
  cpu.local_vcpus.assign(locals.begin(), std::unique(locals.begin(), locals.end()));

  // Slice length: the shortest allocation keeps every slice overlapping at
  // most two allocations; rounding down to a power of two preserves that
  // (slices only shrink) and turns the lookup division into a shift, for
  // at most 2x the slice count.
  cpu.slice_length =
      static_cast<TimeNs>(std::bit_floor(static_cast<std::uint64_t>(min_len)));

  // slice_floor[s] = first allocation whose end is past the slice's start
  // (the slice's first overlapping allocation when one exists, else the
  // next allocation after the slice, else n).
  const std::size_t n = cpu.allocations.size();
  cpu.slice_floor.resize(SliceCount(length, cpu.slice_length));
  std::size_t k = 0;
  for (std::size_t s = 0; s < cpu.slice_floor.size(); ++s) {
    const TimeNs slice_start = static_cast<TimeNs>(s) * cpu.slice_length;
    const TimeNs slice_end = slice_start + std::min(cpu.slice_length, length - slice_start);
    while (k < n && cpu.allocations[k].end <= slice_start) {
      ++k;
    }
    cpu.slice_floor[s] = static_cast<std::int32_t>(k);
    // Lookup's invariant, from the slice-length choice: the floor
    // allocation's successor lasts to the slice end, so no third overlap.
    TABLEAU_CHECK(k + 1 >= n || cpu.allocations[k + 1].end >= slice_end);
  }
  return built;
}

}  // namespace

SchedulingTable SchedulingTable::Build(TimeNs length,
                                       std::vector<std::vector<Allocation>> per_cpu) {
  TABLEAU_CHECK(length > 0);
  SchedulingTable table;
  table.length_ = length;
  table.cpus_.reserve(per_cpu.size());
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    table.cpus_.push_back(BuildCpu(length, c, std::move(per_cpu[c])));
  }
  return table;
}

SchedulingTable SchedulingTable::Rebuild(const std::vector<bool>& changed,
                                         std::vector<std::vector<Allocation>> per_cpu) const {
  TABLEAU_CHECK(changed.size() == cpus_.size() && per_cpu.size() == cpus_.size());
  SchedulingTable table;
  table.length_ = length_;
  table.cpus_.reserve(cpus_.size());
  // An if, not `changed[c] ? BuildCpu(...) : cpus_[c]`: that expression is a
  // const prvalue, which push_back copies again instead of moving.
  for (std::size_t c = 0; c < cpus_.size(); ++c) {
    if (changed[c]) {
      table.cpus_.push_back(BuildCpu(length_, c, std::move(per_cpu[c])));
    } else {
      table.cpus_.push_back(cpus_[c]);
    }
  }
  return table;
}

LookupResult SchedulingTable::Lookup(int cpu_index, TimeNs offset) const {
  TABLEAU_CHECK(offset >= 0 && offset < length_);
  const CpuTable& cpu = *cpus_[static_cast<std::size_t>(cpu_index)];
  const auto slice = static_cast<std::uint64_t>(offset) >>
                     std::countr_zero(static_cast<std::uint64_t>(cpu.slice_length));
  // The slice's floor allocation serves unless the offset is past its end,
  // in which case its successor does: it lasts to the slice end (see Build).
  auto alloc = cpu.allocations.begin() + cpu.slice_floor[slice];
  const auto end = cpu.allocations.end();
  if (alloc != end && offset >= alloc->end) {
    ++alloc;
  }
  if (alloc == end) {
    return LookupResult{kIdleVcpu, length_};
  }
  if (offset < alloc->start) {
    return LookupResult{kIdleVcpu, alloc->start};
  }
  return LookupResult{alloc->vcpu, alloc->end};
}

std::string SchedulingTable::Validate() const {
  // Build rejects overlap within a pCPU, so only a vCPU listed on two or
  // more pCPUs can run on two pCPUs at one instant.
  std::vector<VcpuId> listed;
  for (const auto& cpu : cpus_) {
    listed.insert(listed.end(), cpu->local_vcpus.begin(), cpu->local_vcpus.end());
  }
  return FirstConcurrent(SpreadVcpus(std::move(listed)));
}

std::string SchedulingTable::Validate(const std::vector<bool>& changed) const {
  TABLEAU_CHECK(changed.size() == cpus_.size());
  std::vector<VcpuId> candidates;
  for (std::size_t c = 0; c < cpus_.size(); ++c) {
    if (changed[c]) {
      candidates.insert(candidates.end(), cpus_[c]->local_vcpus.begin(),
                        cpus_[c]->local_vcpus.end());
    }
  }
  if (candidates.empty()) {
    return "";
  }
  std::sort(candidates.begin(), candidates.end());
  // Every pCPU's listing of a candidate; those listed twice are spread.
  std::vector<VcpuId> listed;
  for (const auto& cpu : cpus_) {
    for (const VcpuId vcpu : cpu->local_vcpus) {
      if (std::binary_search(candidates.begin(), candidates.end(), vcpu)) {
        listed.push_back(vcpu);
      }
    }
  }
  return FirstConcurrent(SpreadVcpus(std::move(listed)));
}

std::string SchedulingTable::FirstConcurrent(const std::vector<VcpuId>& spread) const {
  if (spread.empty()) {
    return "";
  }
  std::vector<Allocation> pieces;
  for (const auto& cpu : cpus_) {
    for (const Allocation& alloc : cpu->allocations) {
      if (std::binary_search(spread.begin(), spread.end(), alloc.vcpu)) {
        pieces.push_back(alloc);
      }
    }
  }
  std::sort(pieces.begin(), pieces.end(), [](const Allocation& a, const Allocation& b) {
    return a.vcpu != b.vcpu ? a.vcpu < b.vcpu : a.start < b.start;
  });
  // In (vcpu, start) order the first piece to overlap an earlier piece of
  // its vCPU overlaps its predecessor: were the earlier piece further back,
  // the predecessor would start inside it and overlap it first.
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    if (pieces[i].vcpu == pieces[i - 1].vcpu && pieces[i].start < pieces[i - 1].end) {
      return "vcpu " + std::to_string(pieces[i].vcpu) + " allocated on two pCPUs concurrently";
    }
  }
  return "";
}

std::vector<std::uint8_t> SchedulingTable::Serialize() const {
  std::vector<std::uint8_t> out;
  Append(out, kMagic);
  Append(out, kVersion);
  Append(out, length_);
  Append(out, static_cast<std::uint32_t>(cpus_.size()));
  for (const auto& shared : cpus_) {
    const CpuTable& cpu = *shared;
    Append(out, static_cast<std::uint32_t>(cpu.allocations.size()));
    Append(out, cpu.slice_length);
    Append(out, static_cast<std::uint32_t>(cpu.slice_floor.size()));
    Append(out, static_cast<std::uint32_t>(cpu.local_vcpus.size()));
    for (const Allocation& alloc : cpu.allocations) {
      Append(out, alloc.vcpu);
      Append(out, alloc.start);
      Append(out, alloc.end);
    }
    // v1 wire format: per-slice {first, second} overlap indices (-1 when
    // absent), derived from the floor encoding so old consumers keep parsing.
    const auto n = static_cast<std::int32_t>(cpu.allocations.size());
    for (std::size_t s = 0; s < cpu.slice_floor.size(); ++s) {
      const TimeNs slice_start = static_cast<TimeNs>(s) * cpu.slice_length;
      const TimeNs slice_end = slice_start + std::min(cpu.slice_length, length_ - slice_start);
      const std::int32_t k = cpu.slice_floor[s];
      const bool has_first = k < n && cpu.allocations[static_cast<std::size_t>(k)].start < slice_end;
      const bool has_second =
          has_first && k + 1 < n &&
          cpu.allocations[static_cast<std::size_t>(k) + 1].start < slice_end;
      Append(out, has_first ? k : std::int32_t{-1});
      Append(out, has_second ? k + 1 : std::int32_t{-1});
    }
    for (const VcpuId vcpu : cpu.local_vcpus) {
      Append(out, vcpu);
    }
  }
  return out;
}

std::optional<SchedulingTable> SchedulingTable::Deserialize(
    const std::vector<std::uint8_t>& bytes) {
  Reader in{bytes};
  const auto magic = in.Read<std::uint32_t>();
  const auto version = in.Read<std::uint32_t>();
  const auto length = in.Read<TimeNs>();
  const auto num_cpus = in.Read<std::uint32_t>();
  // Every count is checked against the bytes left before anything is sized
  // from it.
  if (!in.ok || magic != kMagic || version != kVersion || length <= 0 ||
      num_cpus > in.Remaining() / kCpuHeaderBytes) {
    return std::nullopt;
  }
  std::vector<std::vector<Allocation>> per_cpu(num_cpus);
  for (std::vector<Allocation>& allocations : per_cpu) {
    const auto num_allocs = in.Read<std::uint32_t>();
    const auto slice_length = in.Read<TimeNs>();
    const auto num_slices = in.Read<std::uint32_t>();
    const auto num_locals = in.Read<std::uint32_t>();
    if (!in.ok || num_allocs > in.Remaining() / kAllocationBytes) {
      return std::nullopt;
    }
    allocations.resize(num_allocs);
    TimeNs prev_end = 0;
    TimeNs min_len = length;
    for (Allocation& alloc : allocations) {
      alloc.vcpu = in.Read<VcpuId>();
      alloc.start = in.Read<TimeNs>();
      alloc.end = in.Read<TimeNs>();
      // Sorted, disjoint and inside the table, or Build would abort.
      if (alloc.start < prev_end || alloc.end <= alloc.start || alloc.end > length) {
        return std::nullopt;
      }
      prev_end = alloc.end;
      min_len = std::min(min_len, alloc.Length());
    }
    // The per-slice pairs and the local-vCPU list are derived data that
    // Build recomputes, so they are skipped. The stated geometry must still
    // be one a v1 writer could produce: that caps the rebuilt slice table
    // at about twice the pairs this blob carries.
    if (slice_length <= 0 || slice_length > min_len ||
        num_slices != SliceCount(length, slice_length) ||
        !in.Skip(num_slices, kSlicePairBytes) || !in.Skip(num_locals, sizeof(VcpuId))) {
      return std::nullopt;
    }
  }
  if (in.Remaining() != 0) {
    return std::nullopt;
  }
  return Build(length, std::move(per_cpu));
}

std::size_t SchedulingTable::SerializedSizeBytes() const { return Serialize().size(); }

LatencyProfile AnalyzeWakeupLatency(const SchedulingTable& table, VcpuId vcpu) {
  LatencyProfile profile;
  // Collect the vCPU's service intervals across all pCPUs (time order).
  std::vector<Allocation> service;
  for (int c = 0; c < table.num_cpus(); ++c) {
    for (const Allocation& alloc : table.cpu(c).allocations) {
      if (alloc.vcpu == vcpu) {
        service.push_back(alloc);
      }
    }
  }
  const TimeNs length = table.length();
  if (service.empty()) {
    profile.mean = profile.p99 = profile.max = length;
    return profile;
  }
  std::sort(service.begin(), service.end(),
            [](const Allocation& a, const Allocation& b) { return a.start < b.start; });

  // Gaps between consecutive service intervals (cyclic), merging overlap.
  std::vector<TimeNs> gaps;
  TimeNs covered = 0;
  TimeNs covered_until = service.front().end;
  covered += service.front().Length();
  for (std::size_t i = 1; i < service.size(); ++i) {
    if (service[i].start > covered_until) {
      gaps.push_back(service[i].start - covered_until);
    }
    const TimeNs begin = std::max(service[i].start, covered_until);
    covered += std::max<TimeNs>(0, service[i].end - begin);
    covered_until = std::max(covered_until, service[i].end);
  }
  const TimeNs wrap = (length - covered_until) + service.front().start;
  if (wrap > 0) {
    gaps.push_back(wrap);
  }

  profile.service_fraction = static_cast<double>(covered) / static_cast<double>(length);
  // An arrival inside a gap of length g waits Uniform(0, g); the arrival
  // lands in that gap with probability g / length. Hence
  //   E[wait] = sum(g^2 / 2) / length.
  double mean = 0;
  TimeNs max_gap = 0;
  for (const TimeNs gap : gaps) {
    mean += static_cast<double>(gap) * static_cast<double>(gap) / 2.0;
    max_gap = std::max(max_gap, gap);
  }
  profile.mean = static_cast<TimeNs>(mean / static_cast<double>(length));
  profile.max = max_gap;

  // p99: the wait CCDF is P(wait > w) = sum over gaps of max(0, g - w) / L;
  // binary-search the 1% point.
  const double target = 0.01;
  TimeNs lo = 0;
  TimeNs hi = max_gap;
  while (lo < hi) {
    const TimeNs mid = lo + (hi - lo) / 2;
    double tail = 0;
    for (const TimeNs gap : gaps) {
      tail += static_cast<double>(std::max<TimeNs>(0, gap - mid));
    }
    if (tail / static_cast<double>(length) > target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  profile.p99 = lo;
  return profile;
}

namespace {

// True if `vcpu` holds time within [start, end) on a core other than
// `except`. Each core's list is sorted by start and free of overlap.
bool HeldElsewhere(const std::vector<std::vector<Allocation>>& per_cpu, std::size_t except,
                   VcpuId vcpu, TimeNs start, TimeNs end) {
  for (std::size_t c = 0; c < per_cpu.size(); ++c) {
    if (c == except) {
      continue;
    }
    const std::vector<Allocation>& cpu = per_cpu[c];
    auto it = std::partition_point(cpu.begin(), cpu.end(),
                                   [&](const Allocation& a) { return a.end <= start; });
    for (; it != cpu.end() && it->start < end; ++it) {
      if (it->vcpu == vcpu) {
        return true;
      }
    }
  }
  return false;
}

// A sliver [start, end) absorbed by the preceding allocation of `holder`.
struct Extension {
  VcpuId holder;
  TimeNs start;
  TimeNs end;
};

// Coalesces one core's sorted allocations. Slivers starting at a time in
// `kept_idle` stay idle instead of extending their predecessor. Extensions of
// the vCPUs in `spread` (sorted) are reported for the cross-core check.
std::vector<Allocation> CoalesceCore(const std::vector<Allocation>& cpu, TimeNs threshold,
                                     const std::vector<TimeNs>& kept_idle,
                                     const std::vector<VcpuId>& spread,
                                     std::vector<std::pair<VcpuId, TimeNs>>& donated,
                                     std::vector<Extension>& extensions) {
  std::vector<Allocation> result;
  result.reserve(cpu.size());  // Coalescing only ever removes allocations.
  for (const Allocation& alloc : cpu) {
    // Merge contiguous same-vCPU allocations first.
    if (!result.empty() && result.back().vcpu == alloc.vcpu &&
        result.back().end == alloc.start) {
      result.back().end = alloc.end;
      continue;
    }
    if (alloc.Length() >= threshold) {
      result.push_back(alloc);
      continue;
    }
    // Sub-threshold sliver, donated either way: it extends the time-adjacent
    // predecessor if contiguous; otherwise it becomes idle time (recoverable
    // via second-level scheduling at runtime).
    donated.emplace_back(alloc.vcpu, alloc.Length());
    if (!result.empty() && result.back().end == alloc.start &&
        std::find(kept_idle.begin(), kept_idle.end(), alloc.start) == kept_idle.end()) {
      const VcpuId holder = result.back().vcpu;
      if (std::binary_search(spread.begin(), spread.end(), holder)) {
        extensions.push_back(Extension{holder, alloc.start, alloc.end});
      }
      result.back().end = alloc.end;
    }
  }
  return result;
}

}  // namespace

std::vector<std::vector<Allocation>> CoalesceAllocations(
    std::vector<std::vector<Allocation>> per_cpu, TimeNs threshold,
    std::vector<std::pair<VcpuId, TimeNs>>* donated_out) {
  // vCPUs holding time on more than one core (clustered or split plans):
  // each core lists its distinct vCPUs, so a vCPU listed twice is spread.
  // Only extending one of those can overlap its own time elsewhere, so
  // partitioned tables never pay for the cross-core check below.
  std::vector<VcpuId> holders;
  for (auto& cpu : per_cpu) {
    SortByStart(cpu);
    const std::size_t first = holders.size();
    for (const Allocation& alloc : cpu) {
      if (std::find(holders.begin() + static_cast<std::ptrdiff_t>(first), holders.end(),
                    alloc.vcpu) == holders.end()) {
        holders.push_back(alloc.vcpu);
      }
    }
  }
  const std::vector<VcpuId> spread = SpreadVcpus(std::move(holders));

  // Every core is coalesced on its own. An extension that puts its vCPU on
  // two cores at once (McNaughton wrap-around places a task's two pieces on
  // adjacent cores) is undone by redoing that core with the sliver kept
  // idle. Redoing only removes time, so the loop ends, and a table whose
  // extensions all fit is coalesced in a single pass.
  const std::size_t n = per_cpu.size();
  std::vector<std::vector<Allocation>> out(n);
  std::vector<std::vector<std::pair<VcpuId, TimeNs>>> donated(n);
  std::vector<std::vector<Extension>> extensions(n);
  std::vector<std::vector<TimeNs>> kept_idle(n);
  std::vector<bool> redo(n, true);
  for (bool again = true; again;) {
    for (std::size_t c = 0; c < n; ++c) {
      if (redo[c]) {
        donated[c].clear();
        extensions[c].clear();
        out[c] = CoalesceCore(per_cpu[c], threshold, kept_idle[c], spread, donated[c],
                              extensions[c]);
        redo[c] = false;
      }
    }
    again = false;
    for (std::size_t c = 0; c < n; ++c) {
      for (const Extension& e : extensions[c]) {
        if (HeldElsewhere(out, c, e.holder, e.start, e.end)) {
          kept_idle[c].push_back(e.start);
          redo[c] = true;
          again = true;
        }
      }
    }
  }
  if (donated_out != nullptr) {
    for (const auto& core : donated) {
      donated_out->insert(donated_out->end(), core.begin(), core.end());
    }
  }
  return out;
}

}  // namespace tableau
