// Windowed time-series recording: fixed-capacity, zero-allocation ring
// windows sampled on the deterministic simulation clock.
//
// A TimeSeriesRecorder owns a set of named series. Each series is a ring of
// `window_capacity` aggregation windows of `window_ns` simulated time each;
// window w covers [w * window_ns, (w + 1) * window_ns). Recording into a
// window past the newest opens the intervening windows (bounded by the ring
// capacity) and evicts the oldest; evictions are counted, never silently
// lost. The rings are stored window-major: one block per recorder in which
// row w % window_capacity holds window w of every series, so the samples of
// one window, across all series, share one row. The block's storage is
// reserved for every row when it is laid out, but rows are constructed
// (zeroed) in order as windows reach them, so a recorder whose windows
// start at 0 keeps only as many rows resident as it has opened windows. A
// sample inside its series' newest window takes a path with no division.
// The hot path (Observe / AddRange) performs no heap allocation once the
// block is laid out — by the first sample after the last DefineSeries — and
// never touches the simulation engine, so recording is a pure observer:
// traces are bit-identical with a recorder attached or not (see DESIGN.md
// "Telemetry & SLO tracking").
//
// Snapshots are plain data. TimeSeriesSnapshot::Merge aligns windows by
// start time and adds counts/sums (min/max combine accordingly), which is
// commutative and associative — merging per-shard or per-bench-thread
// snapshots in any order yields bit-identical results.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace tableau::obs {

// One aggregation window of one series.
struct TimeSeriesWindow {
  TimeNs start = 0;  // Inclusive window start, a multiple of window_ns.
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // Meaningful only when count > 0.
  std::int64_t max = 0;

  bool operator==(const TimeSeriesWindow&) const = default;
};

// Snapshot of one series: retained windows ascending by start, plus loss
// accounting (windows evicted from the ring, samples older than the ring).
struct TimeSeriesData {
  std::uint64_t dropped_windows = 0;
  std::uint64_t late_samples = 0;
  std::vector<TimeSeriesWindow> windows;

  bool operator==(const TimeSeriesData&) const = default;
};

struct TimeSeriesSnapshot {
  TimeNs window_ns = 0;
  std::map<std::string, TimeSeriesData> series;

  bool empty() const { return series.empty(); }

  // Order-independent aggregation: series union by name; windows with equal
  // start add count/sum and combine min/max; loss counters add. Both
  // snapshots must agree on window_ns (empty snapshots adopt the other's).
  void Merge(const TimeSeriesSnapshot& other);

  // {"schema_version": kSchemaVersion, "window_ns": N, "series": {name:
  // {"dropped_windows": N, "late_samples": N, "windows":
  // [[start, count, sum, min, max], ...]}}}.
  std::string ToJson(int indent = 0) const;
  // One row per (series, window): series,window_start_ns,count,sum,min,max,
  // mean. Series names are CSV-escaped (see CsvEscapeField).
  std::string ToCsv() const;

  bool operator==(const TimeSeriesSnapshot&) const = default;
};

class TimeSeriesRecorder {
 public:
  struct Options {
    TimeNs window_ns = 10 * kMillisecond;
    int window_capacity = 256;
  };

  using SeriesId = int;
  static constexpr SeriesId kNoSeries = -1;

  explicit TimeSeriesRecorder(Options options);

  TimeNs window_ns() const { return options_.window_ns; }
  int window_capacity() const { return options_.window_capacity; }
  int num_series() const { return static_cast<int>(series_.size()); }

  // Registers a series; returns a dense id for the hot-path calls below.
  // Setup-time only. Legal after recording: the first sample after a define
  // widens the block once, keeping every recorded window.
  SeriesId DefineSeries(std::string name);

  // --- Hot path: zero allocation once the block is sized ---

  // Adds one sample to the window containing `at`.
  void Observe(SeriesId series, TimeNs at, std::int64_t value);

  // Spreads the duration [from, to) across the windows it overlaps: each
  // touched window gains one sample whose value is the overlap in ns. The
  // canonical way to window service/wait intervals exactly, independent of
  // where the interval's endpoints fall.
  void AddRange(SeriesId series, TimeNs from, TimeNs to);

  TimeSeriesSnapshot Snapshot() const;

 private:
  // One window of one series; its start is implied by the window index.
  struct Cell {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;  // Meaningful only when count > 0.
    std::int64_t max = 0;

    void Add(std::int64_t value) {
      min = count == 0 ? value : std::min(min, value);
      max = count == 0 ? value : std::max(max, value);
      count += 1;
      sum += value;
    }
  };

  // A series' hot-path state; its name lives in names_, out of the record
  // every sample reads.
  struct Series {
    std::int64_t oldest = 0;   // Oldest retained window index.
    std::int64_t newest = -1;  // Newest opened window index; -1 = empty.
    TimeNs newest_start = 0;   // newest * window_ns.
    std::size_t newest_cell = 0;  // Index of the newest window's cell.
    std::uint64_t dropped_windows = 0;
    std::uint64_t late_samples = 0;
  };

  std::size_t RowOf(std::int64_t w) const {
    return static_cast<std::size_t>(w % options_.window_capacity);
  }
  std::size_t CellIndex(std::int64_t w, SeriesId series) const {
    return RowOf(w) * stride_ + static_cast<std::size_t>(series);
  }
  // Cell of the series' newest window when `at` falls inside it.
  Cell* NewestCellAt(const Series& series, TimeNs at) {
    return series.newest >= 0 && at >= series.newest_start &&
                   at - series.newest_start < options_.window_ns
               ? &cells_[series.newest_cell]
               : nullptr;
  }
  // Opens (and if needed evicts up to) window index `w`; returns its cell,
  // or nullptr for a sample older than the retained range. First widens the
  // block if series were defined since it was laid out.
  Cell* CellFor(SeriesId id, std::int64_t w);
  // Re-lays the block out with `stride` columns per row, copying only each
  // series' retained cells.
  void Relayout(std::size_t stride);

  Options options_;
  std::vector<Series> series_;
  std::vector<std::string> names_;  // Parallel to series_.
  // Rows of stride_ cells; cell CellIndex(w, s) holds window w of series s.
  // A series with no sample yet may have no column (s >= stride_). Storage
  // for all window_capacity rows is reserved when the block is laid out,
  // but only rows [0, rows_) are constructed: a row is zeroed when the
  // first window to reach it opens, so the rest are never written (or made
  // resident) and no cell is read before it is written.
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace tableau::obs

#endif  // SRC_OBS_TIMESERIES_H_
