#include "trace/trace_buffer.h"

#include <algorithm>

namespace atlas::trace {

bool TraceBuffer::IsSortedByTime() const {
  return std::is_sorted(records_.begin(), records_.end(),
                        [](const LogRecord& a, const LogRecord& b) {
                          return a.timestamp_ms < b.timestamp_ms;
                        });
}

TraceBuffer TraceBuffer::Filter(
    const std::function<bool(const LogRecord&)>& pred) const {
  TraceBuffer out;
  for (const auto& r : records_) {
    if (pred(r)) out.Add(r);
  }
  return out;
}

TraceBuffer TraceBuffer::FilterByPublisher(std::uint32_t publisher_id) const {
  return Filter([publisher_id](const LogRecord& r) {
    return r.publisher_id == publisher_id;
  });
}

}  // namespace atlas::trace
