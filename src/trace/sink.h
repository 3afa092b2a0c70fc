// RecordSink: the push half of the streaming trace pipeline.
//
// BlockSource (block.h) is how consumers *pull* records out of a trace, a
// SoA block at a time; RecordSink is how producers *push* them in, as
// LogRecord spans. The CDN simulation engine emits its merged, time-sorted
// record stream into a RecordSink, so the same run can fill an in-memory
// TraceBuffer (BufferSink), stream straight to a v2 block file through one
// block of memory (WriterSink), or just be counted (CountingSink) — the
// producer never decides where records live.
//
// Contract: Write() is called with batches of records in final stream
// order; a batch may be empty. Sinks must not assume any batch size.
#pragma once

#include <cstdint>
#include <span>

#include "trace/trace_buffer.h"

namespace atlas::trace {

class TraceWriter;

class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void Write(std::span<const LogRecord> records) = 0;
};

// Appends every record to a caller-owned TraceBuffer, for callers that want
// the trace in memory. The buffer is only borrowed; it is not cleared first.
class BufferSink final : public RecordSink {
 public:
  explicit BufferSink(TraceBuffer& out) : out_(&out) {}
  void Write(std::span<const LogRecord> records) override;

 private:
  TraceBuffer* out_;
};

// Forwards every record to a v2 TraceWriter (the out-of-core path). The
// caller still owns the writer and must call Finish() on it.
class WriterSink final : public RecordSink {
 public:
  explicit WriterSink(TraceWriter& writer) : writer_(&writer) {}
  void Write(std::span<const LogRecord> records) override;

 private:
  TraceWriter* writer_;
};

// Discards records, keeping only their count. Useful for benchmarks and for
// runs where only the simulator's delivery statistics matter.
class CountingSink final : public RecordSink {
 public:
  void Write(std::span<const LogRecord> records) override;

  std::uint64_t records() const { return records_; }

 private:
  std::uint64_t records_ = 0;
};

}  // namespace atlas::trace
