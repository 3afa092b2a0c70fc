// In-memory trace: a vector of LogRecords in stream order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "trace/record.h"

namespace atlas::trace {

class TraceBuffer {
 public:
  TraceBuffer() = default;

  void Add(const LogRecord& record) { records_.push_back(record); }

  std::size_t size() const { return records_.size(); }
  const LogRecord& operator[](std::size_t i) const { return records_[i]; }
  const std::vector<LogRecord>& records() const { return records_; }

  bool IsSortedByTime() const;

  // Returns a new buffer containing records matching the predicate.
  TraceBuffer Filter(const std::function<bool(const LogRecord&)>& pred) const;
  TraceBuffer FilterByPublisher(std::uint32_t publisher_id) const;

 private:
  std::vector<LogRecord> records_;
};

}  // namespace atlas::trace
