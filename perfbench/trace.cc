#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Scopes close in LIFO order, so `index` is on top of the stack.
  open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"run\": \"%016" PRIx64
                 "\", \"span\": %zu, \"parent\": %d}}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, run_id_, i,
                 span.parent);
  }
  std::fprintf(file, "\n], \"metadata\": %s}\n", metadata_json.c_str());
  return std::fclose(file) == 0;
}

}  // namespace perfbench
