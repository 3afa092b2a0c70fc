// Struct-of-arrays record batches: the unit every trace reader yields.
//
// The v2 trace format already moves data in CRC-framed blocks of a few
// thousand records; RecordBlock is that same unit decoded into column
// arrays instead of an array of LogRecord structs. Consumers (the analysis
// accumulators, the replay benches) iterate one column at a time —
// contiguous, branch-light loops the compiler can vectorize — and a reader
// hands over a whole block per virtual call:
//
//   BlockSource::NextBlock()   the one pull interface; nullptr at end
//
// The push side stays on LogRecord spans (trace::RecordSink, sink.h): the
// engine's k-way merge emits records one at a time in final order, so a
// span of them is its natural output. Row() reassembles an exact LogRecord
// for callers that want one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "trace/trace_buffer.h"

namespace atlas::trace {

// Records per block: 8192 * 51 B ≈ 408 KB payloads — big enough to
// amortize syscalls and virtual dispatch, small enough that a reader's
// working set is trivial.
inline constexpr std::size_t kDefaultBlockRecords = 8192;
// Upper bound a reader will accept for one block; anything larger is
// corruption, not a legitimate writer.
inline constexpr std::size_t kMaxBlockRecords = 1u << 20;

// One batch of records, one contiguous array per field. All columns always
// have identical length (size()); rows correspond across columns.
struct RecordBlock {
  std::vector<std::int64_t> timestamp_ms;
  std::vector<std::uint64_t> url_hash;
  std::vector<std::uint64_t> user_id;
  std::vector<std::uint64_t> object_size;
  std::vector<std::uint64_t> response_bytes;
  std::vector<std::uint32_t> publisher_id;
  std::vector<std::uint16_t> user_agent_id;
  std::vector<std::uint16_t> response_code;
  std::vector<FileType> file_type;
  std::vector<CacheStatus> cache_status;
  std::vector<std::int8_t> tz_offset_quarter_hours;

  std::size_t size() const { return timestamp_ms.size(); }
  void clear();
  void reserve(std::size_t n);

  // Local-time timestamp of row i: the UTC timestamp shifted by the
  // user's offset.
  std::int64_t LocalTimestampMs(std::size_t i) const {
    return timestamp_ms[i] +
           static_cast<std::int64_t>(tz_offset_quarter_hours[i]) * 15 * 60 *
               1000;
  }

  // Row i reassembled as a LogRecord (the AoS bridge).
  LogRecord Row(std::size_t i) const;
  void PushBack(const LogRecord& r);
  void Append(std::span<const LogRecord> records);

  // Decodes `n` wire-format records (wire_format.h, 51 bytes each) at `src`
  // into the columns, replacing current contents. Applies the same field
  // validation as wire::DecodeRecord and throws std::runtime_error with the
  // same messages on any field a valid writer could not have produced.
  void DecodeWire(const unsigned char* src, std::size_t n);
};

// Pull interface of the record pipeline. Returned blocks stay valid until
// the next call (or the source's destruction); nullptr means end of stream.
// Consumers must not assume any particular block size: sources may yield
// partial blocks, e.g. at end of stream.
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  virtual const RecordBlock* NextBlock() = 0;
};

// Streams an in-memory TraceBuffer as SoA blocks, block_records at a time.
class BufferBlockSource final : public BlockSource {
 public:
  explicit BufferBlockSource(const TraceBuffer& buffer,
                             std::size_t block_records = kDefaultBlockRecords);
  const RecordBlock* NextBlock() override;

 private:
  const TraceBuffer& buffer_;
  std::size_t block_records_;
  std::size_t pos_ = 0;
  RecordBlock block_;
};

}  // namespace atlas::trace
