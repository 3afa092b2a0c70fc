// Streaming trace I/O: the v2 block format, its writer, and the readers
// that yield it as BlockSource (block.h) blocks.
//
// Format v2 (little-endian):
//
//   magic "ATLS" | u32 version=2 | u64 total_count
//   blocks:  u32 nrec (> 0) | u32 payload_bytes | u32 crc32 | payload
//   end:     u32 0 | u32 0 | u32 0 | u64 total_count (trailer)
//
// Each payload holds `nrec` records at 51 bytes apiece (wire_format.h), so
// `payload_bytes` is redundant with `nrec` and both are validated, along
// with the payload CRC-32, before any record is decoded. The header count
// is patched in at Finish() when the sink is seekable; on a pipe it stays
// at the kUnknownCount sentinel and readers learn the count from the
// trailer. A trace of any length streams through one block of memory.
//
// TraceReader yields v2 files through BlockSource::NextBlock, and
// BufferBlockSource does the same for in-memory TraceBuffers — which is how
// the one-shot in-memory analysis path is built on top of the streaming
// one. Version 2 is the only trace format; any other version fails at open.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::ckpt {
class Reader;
class Writer;
}  // namespace atlas::ckpt

namespace atlas::trace {

inline constexpr std::uint32_t kBlockFormatVersion = 2;
// Header count sentinel for v2 streams written to non-seekable sinks.
inline constexpr std::uint64_t kUnknownCount = ~0ULL;

// Checkpoint section written by TraceWriter::SaveState().
inline constexpr char kTraceWriterSection[] = "trace.writer";
inline constexpr std::uint32_t kTraceWriterStateVersion = 1;

// Outcome of walking a v2 stream block by block (ScanV2Blocks): how much
// of the file is intact, where the intact prefix ends, and what (if
// anything) is wrong after it. Shared by `atlas-trace verify` and by
// crash recovery, which truncates a torn file back to `data_end_offset`.
struct ScanResult {
  std::uint64_t valid_records = 0;  // records inside intact blocks
  std::uint64_t valid_blocks = 0;
  std::uint64_t data_end_offset = 0;  // byte offset past the last intact block
  std::optional<std::uint64_t> header_count;  // nullopt if sentinel
  bool terminated = false;  // saw a valid terminator + matching trailer
  std::string error;        // empty when the whole stream is intact
};

// Validates a v2 stream's header and every block CRC without decoding
// records. Never throws on corruption: the scan stops at the first defect
// and reports it in `error`, leaving the intact-prefix fields set. Stops
// early (cleanly, error empty, terminated false) once `stop_after_records`
// records have been validated — crash recovery uses this to ignore blocks
// written after the snapshot being restored.
ScanResult ScanV2Blocks(std::istream& in,
                        std::uint64_t stop_after_records = kUnknownCount);
ScanResult ScanV2File(const std::string& path,
                      std::uint64_t stop_after_records = kUnknownCount);

// Writes the v2 block format. Records accumulate into a block buffer that
// is flushed (with its CRC) whenever full; Finish() flushes the tail block,
// writes the terminator + trailer, and back-patches the header count when
// the sink is seekable. Finish() must be called — a stream abandoned
// without it has no terminator and readers will (correctly) report it as
// truncated.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out,
                       std::size_t block_records = kDefaultBlockRecords);
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Block framing on disk depends only on block_records and the cumulative
  // record count, never on how the records were split across calls.
  void Add(const LogRecord& record);
  void Append(std::span<const LogRecord> records);
  // Idempotent; throws std::runtime_error if the sink failed.
  void Finish();

  std::uint64_t written() const { return total_; }

  // State carried in a "trace.writer" checkpoint section: the counters plus
  // the encoded partial tail block. The tail rides in the snapshot rather
  // than being force-flushed, so block layout — and therefore the output
  // bytes — never depends on checkpoint cadence.
  struct ResumeState {
    std::size_t block_records = kDefaultBlockRecords;
    std::uint64_t total = 0;             // records accepted by Add()
    std::uint32_t block_nrec = 0;        // records in the partial tail block
    std::vector<unsigned char> payload;  // encoded tail-block bytes
    std::uint64_t file_bytes = 0;        // intact data bytes on disk at save

    // Reads and validates the section; throws on any inconsistency.
    static ResumeState Load(ckpt::Reader& r);
    std::uint64_t flushed_records() const { return total - block_nrec; }
  };

  // Checkpoint hook: flushes completed blocks to the sink (which must be
  // seekable), then writes the "trace.writer" section. Throws if the sink
  // failed — a checkpoint must not commit with unflushed trace data.
  void SaveState(ckpt::Writer& w);

  // Re-attaches to `out`, an existing v2 file already recovered (truncated
  // to resume.file_bytes) and positioned at its end. Most callers want
  // ResumedTraceFile, which performs the recovery too.
  TraceWriter(std::ostream& out, const ResumeState& resume);

 private:
  void FlushBlock();

  std::ostream& out_;
  std::size_t block_records_;
  std::vector<unsigned char> payload_;
  std::uint32_t block_nrec_ = 0;
  std::uint64_t total_ = 0;
  std::ostream::pos_type count_pos_;
  bool seekable_ = false;
  bool finished_ = false;
};

// Reads v2 trace streams through bounded memory. Every block's length
// fields and CRC are verified and the trailer count is cross-checked
// against the records actually delivered, so truncation and bit-rot
// surface as errors, not short reads.
class TraceReader final : public BlockSource {
 public:
  // Throws std::runtime_error on bad magic or unsupported version.
  explicit TraceReader(std::istream& in);

  // One whole CRC block decoded column-wise per call; nullptr at end of
  // stream. Blocks arrive as they were written.
  const RecordBlock* NextBlock() override;


 private:
  // Reads + validates the next CRC block's payload into raw_. Returns the
  // record count, 0 at a (validated) end of stream.
  std::uint32_t ReadRaw();

  std::istream& in_;
  std::uint64_t header_count_ = 0;
  std::uint64_t records_read_ = 0;
  bool done_ = false;
  std::vector<unsigned char> raw_;
  RecordBlock block_;
};

// TraceReader over a file it owns; the usual way to hand a trace file to
// the streaming analysis suite.
class TraceFileReader final : public BlockSource {
 public:
  // Throws std::runtime_error if the file cannot be opened or parsed.
  explicit TraceFileReader(const std::string& path);
  const RecordBlock* NextBlock() override { return reader_.NextBlock(); }

 private:
  static std::ifstream& Checked(std::ifstream& in, const std::string& path);

  std::ifstream in_;
  TraceReader reader_;
};

// Crash recovery for a torn simulate output. Reads the "trace.writer"
// section from `r`, validates `path`'s blocks up to the snapshot's
// flushed-record count, truncates anything beyond it (a torn tail block,
// or whole blocks written after the snapshot), and re-opens a TraceWriter
// positioned to continue the stream byte-for-byte. Throws if the file
// holds fewer intact records than the snapshot requires.
class ResumedTraceFile {
 public:
  ResumedTraceFile(const std::string& path, ckpt::Reader& r);
  TraceWriter& writer() { return *writer_; }

 private:
  std::fstream io_;
  std::unique_ptr<TraceWriter> writer_;
};

// Whole-buffer conveniences over the streaming primitives.
void WriteV2(const TraceBuffer& trace, std::ostream& out,
             std::size_t block_records = kDefaultBlockRecords);
void WriteV2File(const TraceBuffer& trace, const std::string& path,
                 std::size_t block_records = kDefaultBlockRecords);

// Drains a source into a TraceBuffer (the in-memory bridge); a trace file
// loads through a TraceFileReader.
TraceBuffer ReadAllRecords(BlockSource& source);

}  // namespace atlas::trace
