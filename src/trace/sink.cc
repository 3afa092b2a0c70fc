#include "trace/sink.h"

#include "trace/stream.h"

namespace atlas::trace {

void BufferSink::Write(std::span<const LogRecord> records) {
  for (const auto& rec : records) out_->Add(rec);
}

void WriterSink::Write(std::span<const LogRecord> records) {
  writer_->Append(records);
}

void CountingSink::Write(std::span<const LogRecord> records) {
  records_ += records.size();
}

}  // namespace atlas::trace
