#include "trace/block.h"

#include <algorithm>
#include <stdexcept>

#include "trace/wire_format.h"

namespace atlas::trace {

void RecordBlock::clear() {
  timestamp_ms.clear();
  url_hash.clear();
  user_id.clear();
  object_size.clear();
  response_bytes.clear();
  publisher_id.clear();
  user_agent_id.clear();
  response_code.clear();
  file_type.clear();
  cache_status.clear();
  tz_offset_quarter_hours.clear();
}

void RecordBlock::reserve(std::size_t n) {
  timestamp_ms.reserve(n);
  url_hash.reserve(n);
  user_id.reserve(n);
  object_size.reserve(n);
  response_bytes.reserve(n);
  publisher_id.reserve(n);
  user_agent_id.reserve(n);
  response_code.reserve(n);
  file_type.reserve(n);
  cache_status.reserve(n);
  tz_offset_quarter_hours.reserve(n);
}

LogRecord RecordBlock::Row(std::size_t i) const {
  LogRecord r;
  r.timestamp_ms = timestamp_ms[i];
  r.url_hash = url_hash[i];
  r.user_id = user_id[i];
  r.object_size = object_size[i];
  r.response_bytes = response_bytes[i];
  r.publisher_id = publisher_id[i];
  r.user_agent_id = user_agent_id[i];
  r.response_code = response_code[i];
  r.file_type = file_type[i];
  r.cache_status = cache_status[i];
  r.tz_offset_quarter_hours = tz_offset_quarter_hours[i];
  return r;
}

void RecordBlock::PushBack(const LogRecord& r) {
  timestamp_ms.push_back(r.timestamp_ms);
  url_hash.push_back(r.url_hash);
  user_id.push_back(r.user_id);
  object_size.push_back(r.object_size);
  response_bytes.push_back(r.response_bytes);
  publisher_id.push_back(r.publisher_id);
  user_agent_id.push_back(r.user_agent_id);
  response_code.push_back(r.response_code);
  file_type.push_back(r.file_type);
  cache_status.push_back(r.cache_status);
  tz_offset_quarter_hours.push_back(r.tz_offset_quarter_hours);
}

void RecordBlock::Append(std::span<const LogRecord> records) {
  reserve(size() + records.size());
  for (const auto& r : records) PushBack(r);
}

namespace {

// Loads one column out of the AoS wire layout: n values of type T at byte
// offset `off` inside consecutive 51-byte records.
template <typename T, typename Out>
void LoadColumn(const unsigned char* src, std::size_t n, std::size_t off,
                std::vector<Out>& col) {
  col.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    col[i] = static_cast<Out>(
        wire::LoadLe<T>(src + i * wire::kRecordWireSize + off));
  }
}

}  // namespace

void RecordBlock::DecodeWire(const unsigned char* src, std::size_t n) {
  LoadColumn<std::int64_t>(src, n, 0, timestamp_ms);
  LoadColumn<std::uint64_t>(src, n, 8, url_hash);
  LoadColumn<std::uint64_t>(src, n, 16, user_id);
  LoadColumn<std::uint64_t>(src, n, 24, object_size);
  LoadColumn<std::uint64_t>(src, n, 32, response_bytes);
  LoadColumn<std::uint32_t>(src, n, 40, publisher_id);
  LoadColumn<std::uint16_t>(src, n, 44, user_agent_id);
  LoadColumn<std::uint16_t>(src, n, 46, response_code);
  LoadColumn<std::uint8_t>(src, n, 48, file_type);
  LoadColumn<std::uint8_t>(src, n, 49, cache_status);
  LoadColumn<std::int8_t>(src, n, 50, tz_offset_quarter_hours);
  // Same rejections as wire::DecodeRecord, applied per column.
  for (std::size_t i = 0; i < n; ++i) {
    if (timestamp_ms[i] < 0) {
      throw std::runtime_error("trace_io: negative timestamp_ms");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<std::uint8_t>(file_type[i]) >= kNumFileTypes) {
      throw std::runtime_error("trace_io: bad file type");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<std::uint8_t>(cache_status[i]) > 1) {
      throw std::runtime_error("trace_io: bad cache status");
    }
  }
}

BufferBlockSource::BufferBlockSource(const TraceBuffer& buffer,
                                     std::size_t block_records)
    : buffer_(buffer),
      block_records_(std::max<std::size_t>(1, block_records)) {}

const RecordBlock* BufferBlockSource::NextBlock() {
  const auto& records = buffer_.records();
  if (pos_ >= records.size()) return nullptr;
  const std::size_t n = std::min(block_records_, records.size() - pos_);
  block_.clear();
  block_.Append({records.data() + pos_, n});
  pos_ += n;
  return &block_;
}

}  // namespace atlas::trace
