#include "src/obs/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace tableau::obs {

TimeSeriesRecorder::TimeSeriesRecorder(Options options) : options_(options) {
  TABLEAU_CHECK(options_.window_ns > 0);
  TABLEAU_CHECK(options_.window_capacity > 0);
}

TimeSeriesRecorder::SeriesId TimeSeriesRecorder::DefineSeries(std::string name) {
  series_.emplace_back();
  names_.push_back(std::move(name));
  return static_cast<SeriesId>(series_.size()) - 1;
}

void TimeSeriesRecorder::Relayout(std::size_t stride) {
  std::vector<Cell> cells;
  cells.reserve(static_cast<std::size_t>(options_.window_capacity) * stride);
  cells.resize(rows_ * stride);
  for (std::size_t s = 0; s < series_.size(); ++s) {
    Series& series = series_[s];
    if (series.newest < 0) {
      continue;  // Nothing recorded.
    }
    for (std::int64_t w = series.oldest; w <= series.newest; ++w) {
      cells[RowOf(w) * stride + s] = cells_[CellIndex(w, static_cast<SeriesId>(s))];
    }
    series.newest_cell = RowOf(series.newest) * stride + s;
  }
  cells_ = std::move(cells);
  stride_ = stride;
}

TimeSeriesRecorder::Cell* TimeSeriesRecorder::CellFor(SeriesId id, std::int64_t w) {
  if (series_.size() > stride_) {
    Relayout(series_.size());
  }
  Series& series = series_[static_cast<std::size_t>(id)];
  const std::int64_t capacity = options_.window_capacity;
  if (series.newest >= 0 && w <= series.newest) {
    if (w < series.oldest) {
      ++series.late_samples;
      return nullptr;
    }
    return &cells_[CellIndex(w, id)];
  }
  if (series.newest < 0) {
    series.oldest = w;
    series.newest = w - 1;
  }
  // Open the intervening windows (bounded by the ring capacity: anything
  // older than w - capacity + 1 is evicted wholesale, never touched).
  const std::int64_t new_oldest = std::max(series.oldest, w - capacity + 1);
  if (new_oldest > series.oldest) {
    // Windows [oldest, min(newest, new_oldest - 1)] had been opened and are
    // now lost to the ring.
    const std::int64_t evicted =
        std::min(series.newest, new_oldest - 1) - series.oldest + 1;
    series.dropped_windows += static_cast<std::uint64_t>(evicted);
    series.oldest = new_oldest;
  }
  for (std::int64_t k = std::max(series.newest + 1, new_oldest); k <= w; ++k) {
    const std::size_t row = RowOf(k);
    if (row >= rows_) {
      // First window to reach this row: construct (zero) the rows up to it
      // inside the reserved block.
      rows_ = row + 1;
      cells_.resize(rows_ * stride_);
    }
    cells_[row * stride_ + static_cast<std::size_t>(id)] = Cell{};
  }
  series.newest = w;
  series.newest_start = w * options_.window_ns;
  series.newest_cell = CellIndex(w, id);
  return &cells_[series.newest_cell];
}

void TimeSeriesRecorder::Observe(SeriesId series, TimeNs at, std::int64_t value) {
  if (series == kNoSeries) {
    return;
  }
  Cell* cell = NewestCellAt(series_[static_cast<std::size_t>(series)], at);
  if (cell == nullptr) {
    cell = CellFor(series, at / options_.window_ns);
    if (cell == nullptr) {
      return;
    }
  }
  cell->Add(value);
}

void TimeSeriesRecorder::AddRange(SeriesId series, TimeNs from, TimeNs to) {
  if (series == kNoSeries || to <= from) {
    return;
  }
  Series& s = series_[static_cast<std::size_t>(series)];
  const TimeNs W = options_.window_ns;
  if (Cell* cell = NewestCellAt(s, from); cell != nullptr && to - s.newest_start <= W) {
    cell->Add(to - from);  // The whole range lies in the newest window.
    return;
  }
  const std::int64_t last = (to - 1) / W;
  // Clamp the walk to the ring capacity: older windows would be evicted by
  // the time the walk reaches `last` anyway, so account them as late.
  std::int64_t first = from / W;
  const std::int64_t capacity = options_.window_capacity;
  if (last - first + 1 > capacity) {
    s.late_samples += static_cast<std::uint64_t>(last - first + 1 - capacity);
    first = last - capacity + 1;
  }
  for (std::int64_t w = first; w <= last; ++w) {
    Cell* cell = CellFor(series, w);
    if (cell == nullptr) {
      continue;
    }
    cell->Add(std::min(to, (w + 1) * W) - std::max(from, w * W));
  }
}

TimeSeriesSnapshot TimeSeriesRecorder::Snapshot() const {
  TimeSeriesSnapshot snapshot;
  snapshot.window_ns = options_.window_ns;
  for (std::size_t id = 0; id < series_.size(); ++id) {
    const Series& series = series_[id];
    TimeSeriesData data;
    data.dropped_windows = series.dropped_windows;
    data.late_samples = series.late_samples;
    if (series.newest >= 0) {
      data.windows.reserve(
          static_cast<std::size_t>(series.newest - series.oldest + 1));
      for (std::int64_t w = series.oldest; w <= series.newest; ++w) {
        const Cell& cell = cells_[CellIndex(w, static_cast<SeriesId>(id))];
        data.windows.push_back(TimeSeriesWindow{w * options_.window_ns, cell.count,
                                                cell.sum, cell.min, cell.max});
      }
    }
    snapshot.series.emplace(names_[id], std::move(data));
  }
  return snapshot;
}

namespace {

// Returns the existing entry for `name`, or nullptr after inserting a fresh
// copy of `incoming` (nothing left to combine).
TimeSeriesData* FindOrInsert(std::map<std::string, TimeSeriesData>& series,
                             const std::string& name,
                             const TimeSeriesData& incoming) {
  const auto it = series.find(name);
  if (it == series.end()) {
    series.emplace(name, incoming);
    return nullptr;
  }
  return &it->second;
}

}  // namespace

void TimeSeriesSnapshot::Merge(const TimeSeriesSnapshot& other) {
  if (window_ns == 0) {
    window_ns = other.window_ns;
  }
  if (other.series.empty()) {
    return;
  }
  TABLEAU_CHECK_MSG(other.window_ns == window_ns,
                    "merging time series with mismatched cadence (%lld vs %lld)",
                    static_cast<long long>(other.window_ns),
                    static_cast<long long>(window_ns));
  for (const auto& [name, incoming] : other.series) {
    TimeSeriesData* const it = FindOrInsert(series, name, incoming);
    if (it == nullptr) {
      continue;  // Fresh copy inserted.
    }
    TimeSeriesData& mine = *it;
    mine.dropped_windows += incoming.dropped_windows;
    mine.late_samples += incoming.late_samples;
    // Two-pointer merge by window start: both lists are ascending, the
    // result is ascending and independent of merge order (+ and min/max
    // commute and associate).
    std::vector<TimeSeriesWindow> merged;
    merged.reserve(mine.windows.size() + incoming.windows.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < mine.windows.size() || b < incoming.windows.size()) {
      if (b >= incoming.windows.size() ||
          (a < mine.windows.size() &&
           mine.windows[a].start < incoming.windows[b].start)) {
        merged.push_back(mine.windows[a++]);
      } else if (a >= mine.windows.size() ||
                 incoming.windows[b].start < mine.windows[a].start) {
        merged.push_back(incoming.windows[b++]);
      } else {
        TimeSeriesWindow window = mine.windows[a++];
        const TimeSeriesWindow& in = incoming.windows[b++];
        if (in.count > 0) {
          window.min = window.count == 0 ? in.min : std::min(window.min, in.min);
          window.max = window.count == 0 ? in.max : std::max(window.max, in.max);
        }
        window.count += in.count;
        window.sum += in.sum;
        merged.push_back(window);
      }
    }
    mine.windows = std::move(merged);
  }
}

namespace {

std::string Pad(int indent) {
  return std::string(static_cast<std::size_t>(indent), ' ');
}

}  // namespace

std::string TimeSeriesSnapshot::ToJson(int indent) const {
  const std::string p0 = Pad(indent);
  const std::string p1 = Pad(indent + 2);
  const std::string p2 = Pad(indent + 4);
  std::string out = "{\n";
  out += p1 + "\"schema_version\": \"" + kSchemaVersion + "\",\n";
  out += p1 + "\"window_ns\": " + std::to_string(window_ns) + ",\n";
  out += p1 + "\"series\": {";
  bool first = true;
  for (const auto& [name, data] : series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += p2 + "\"" + JsonEscape(name) + "\": {\"dropped_windows\": " +
           std::to_string(data.dropped_windows) + ", \"late_samples\": " +
           std::to_string(data.late_samples) + ", \"windows\": [";
    bool first_window = true;
    for (const TimeSeriesWindow& window : data.windows) {
      if (!first_window) {
        out += ", ";
      }
      first_window = false;
      out += "[" + std::to_string(window.start) + ", " +
             std::to_string(window.count) + ", " + std::to_string(window.sum) +
             ", " + std::to_string(window.count == 0 ? 0 : window.min) + ", " +
             std::to_string(window.count == 0 ? 0 : window.max) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n" + p1 + "}\n";
  out += p0 + "}";
  return out;
}

std::string TimeSeriesSnapshot::ToCsv() const {
  std::string out = "series,window_start_ns,count,sum,min,max,mean\n";
  char mean[64];
  for (const auto& [name, data] : series) {
    const std::string escaped = CsvEscapeField(name);
    for (const TimeSeriesWindow& window : data.windows) {
      std::snprintf(mean, sizeof(mean), "%.6g",
                    window.count == 0
                        ? 0.0
                        : static_cast<double>(window.sum) /
                              static_cast<double>(window.count));
      out += escaped + "," + std::to_string(window.start) + "," +
             std::to_string(window.count) + "," + std::to_string(window.sum) +
             "," + std::to_string(window.count == 0 ? 0 : window.min) + "," +
             std::to_string(window.count == 0 ? 0 : window.max) + "," + mean +
             "\n";
    }
  }
  return out;
}

}  // namespace tableau::obs
