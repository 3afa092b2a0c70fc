#include "trace/stream.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "trace/wire_format.h"
#include "util/hash.h"

namespace atlas::trace {
namespace {

constexpr char kMagic[4] = {'A', 'T', 'L', 'S'};

template <typename T>
void WriteLe(std::ostream& out, T value) {
  unsigned char bytes[sizeof(T)];
  wire::StoreLe(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), sizeof(T));
}

template <typename T>
T ReadLe(std::istream& in) {
  unsigned char bytes[sizeof(T)];
  in.read(reinterpret_cast<char*>(bytes), sizeof(T));
  if (!in) throw std::runtime_error("trace_io: truncated input");
  return wire::LoadLe<T>(bytes);
}

// Non-throwing variant for the recovery scanner, which must report
// truncation as a finding rather than an exception.
template <typename T>
bool TryReadLe(std::istream& in, T* value) {
  unsigned char bytes[sizeof(T)];
  in.read(reinterpret_cast<char*>(bytes), sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) return false;
  *value = wire::LoadLe<T>(bytes);
  return true;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, std::size_t block_records)
    : out_(out),
      block_records_(
          std::clamp<std::size_t>(block_records, 1, kMaxBlockRecords)) {
  payload_.reserve(block_records_ * wire::kRecordWireSize);
  out_.write(kMagic, sizeof(kMagic));
  WriteLe(out_, kBlockFormatVersion);
  count_pos_ = out_.tellp();
  seekable_ = count_pos_ != std::ostream::pos_type(-1);
  WriteLe(out_, kUnknownCount);
  if (!out_) throw std::runtime_error("trace_io: write failed");
}

void TraceWriter::Add(const LogRecord& record) {
  if (finished_) throw std::logic_error("TraceWriter: Add after Finish");
  unsigned char buf[wire::kRecordWireSize];
  wire::EncodeRecord(record, buf);
  payload_.insert(payload_.end(), buf, buf + sizeof(buf));
  ++block_nrec_;
  ++total_;
  if (block_nrec_ == block_records_) FlushBlock();
}

void TraceWriter::Append(std::span<const LogRecord> records) {
  for (const auto& r : records) Add(r);
}

void TraceWriter::FlushBlock() {
  if (block_nrec_ == 0) return;
  WriteLe(out_, block_nrec_);
  WriteLe(out_, static_cast<std::uint32_t>(payload_.size()));
  WriteLe(out_, util::Crc32(payload_.data(), payload_.size()));
  out_.write(reinterpret_cast<const char*>(payload_.data()),
             static_cast<std::streamsize>(payload_.size()));
  if (!out_) throw std::runtime_error("trace_io: write failed");
  payload_.clear();
  block_nrec_ = 0;
}

void TraceWriter::Finish() {
  if (finished_) return;
  FlushBlock();
  // Terminator block, then the trailer count every reader can rely on.
  WriteLe(out_, std::uint32_t{0});
  WriteLe(out_, std::uint32_t{0});
  WriteLe(out_, std::uint32_t{0});
  WriteLe(out_, total_);
  if (seekable_) {
    const auto end_pos = out_.tellp();
    out_.seekp(count_pos_);
    WriteLe(out_, total_);
    out_.seekp(end_pos);
  }
  out_.flush();
  if (!out_) throw std::runtime_error("trace_io: write failed");
  finished_ = true;
}

ScanResult ScanV2Blocks(std::istream& in, std::uint64_t stop_after_records) {
  ScanResult result;
  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    result.error = "bad magic";
    return result;
  }
  std::uint32_t version = 0;
  std::uint64_t header_count = 0;
  if (!TryReadLe(in, &version) || !TryReadLe(in, &header_count)) {
    result.error = "truncated header";
    return result;
  }
  if (version != kBlockFormatVersion) {
    result.error = "unsupported version " + std::to_string(version) +
                   " (the scanner walks v2 block streams)";
    return result;
  }
  if (header_count != kUnknownCount) result.header_count = header_count;
  result.data_end_offset = sizeof(magic) + sizeof(version) + sizeof(header_count);
  std::vector<unsigned char> payload;
  while (result.valid_records < stop_after_records) {
    std::uint32_t nrec = 0;
    if (!TryReadLe(in, &nrec)) {
      result.error = "missing terminator (stream ends at a block boundary)";
      return result;
    }
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;
    if (!TryReadLe(in, &payload_bytes) || !TryReadLe(in, &crc)) {
      result.error = "truncated block header";
      return result;
    }
    if (nrec == 0) {
      if (payload_bytes != 0 || crc != 0) {
        result.error = "malformed terminator block";
        return result;
      }
      std::uint64_t trailer = 0;
      if (!TryReadLe(in, &trailer)) {
        result.error = "truncated trailer";
        return result;
      }
      if (trailer != result.valid_records) {
        result.error = "trailer count mismatch (trailer says " +
                       std::to_string(trailer) + ", blocks hold " +
                       std::to_string(result.valid_records) + ")";
        return result;
      }
      if (result.header_count && *result.header_count != result.valid_records) {
        result.error = "header count mismatch";
        return result;
      }
      result.terminated = true;
      return result;
    }
    if (nrec > kMaxBlockRecords ||
        payload_bytes != nrec * wire::kRecordWireSize) {
      result.error = "bad block header";
      return result;
    }
    payload.resize(payload_bytes);
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    if (static_cast<std::size_t>(in.gcount()) != payload.size()) {
      result.error = "truncated block payload";
      return result;
    }
    if (util::Crc32(payload.data(), payload.size()) != crc) {
      result.error = "block CRC mismatch";
      return result;
    }
    result.data_end_offset += 3 * sizeof(std::uint32_t) + payload_bytes;
    ++result.valid_blocks;
    result.valid_records += nrec;
  }
  return result;  // stop_after_records reached; tail intentionally unscanned
}

ScanResult ScanV2File(const std::string& path,
                      std::uint64_t stop_after_records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace_io: cannot open " + path);
  return ScanV2Blocks(in, stop_after_records);
}

void TraceWriter::SaveState(ckpt::Writer& w) {
  if (finished_) throw std::logic_error("TraceWriter: SaveState after Finish");
  if (!seekable_) {
    throw std::runtime_error("trace_io: checkpointing requires a seekable sink");
  }
  out_.flush();
  const auto pos = out_.tellp();
  if (!out_ || pos == std::ostream::pos_type(-1)) {
    throw std::runtime_error("trace_io: flush failed before checkpoint");
  }
  w.BeginSection(kTraceWriterSection, kTraceWriterStateVersion);
  w.WriteU64(static_cast<std::uint64_t>(block_records_));
  w.WriteU64(total_);
  w.WriteU32(block_nrec_);
  w.WriteBytes(payload_.data(), payload_.size());
  w.WriteU64(static_cast<std::uint64_t>(static_cast<std::streamoff>(pos)));
  w.EndSection();
}

TraceWriter::ResumeState TraceWriter::ResumeState::Load(ckpt::Reader& r) {
  ResumeState s;
  r.BeginSection(kTraceWriterSection, kTraceWriterStateVersion);
  s.block_records = static_cast<std::size_t>(r.ReadU64());
  s.total = r.ReadU64();
  s.block_nrec = r.ReadU32();
  s.payload = r.ReadBytes();
  s.file_bytes = r.ReadU64();
  r.EndSection();
  constexpr std::uint64_t kHeaderBytes = 16;
  if (s.block_records == 0 || s.block_records > kMaxBlockRecords ||
      s.block_nrec >= s.block_records || s.total < s.block_nrec ||
      s.payload.size() != std::size_t{s.block_nrec} * wire::kRecordWireSize ||
      s.file_bytes < kHeaderBytes) {
    throw std::runtime_error("trace_io: corrupt writer snapshot");
  }
  return s;
}

TraceWriter::TraceWriter(std::ostream& out, const ResumeState& resume)
    : out_(out), block_records_(resume.block_records) {
  payload_ = resume.payload;
  payload_.reserve(block_records_ * wire::kRecordWireSize);
  block_nrec_ = resume.block_nrec;
  total_ = resume.total;
  // Resumed sinks are real files: the header count lives right after the
  // 4-byte magic and 4-byte version, and Finish() can patch it.
  count_pos_ = std::ostream::pos_type(std::streamoff{8});
  seekable_ = true;
  if (!out_) throw std::runtime_error("trace_io: write failed");
}

ResumedTraceFile::ResumedTraceFile(const std::string& path, ckpt::Reader& r) {
  const auto resume = TraceWriter::ResumeState::Load(r);
  const ScanResult scan = ScanV2File(path, resume.flushed_records());
  if (scan.valid_records != resume.flushed_records() ||
      scan.data_end_offset != resume.file_bytes) {
    std::string detail = scan.error.empty() ? "layout mismatch" : scan.error;
    throw std::runtime_error(
        "trace_io: recovery failed for " + path + ": checkpoint expects " +
        std::to_string(resume.flushed_records()) + " flushed records in " +
        std::to_string(resume.file_bytes) + " bytes, file has " +
        std::to_string(scan.valid_records) + " intact records in " +
        std::to_string(scan.data_end_offset) + " bytes (" + detail + ")");
  }
  // Drop the torn tail (or blocks written after this snapshot), then
  // reopen for in-place append.
  std::filesystem::resize_file(path, resume.file_bytes);
  io_.open(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!io_) throw std::runtime_error("trace_io: cannot reopen " + path);
  io_.seekp(static_cast<std::streamoff>(resume.file_bytes), std::ios::beg);
  writer_ = std::make_unique<TraceWriter>(io_, resume);
}

TraceReader::TraceReader(std::istream& in) : in_(in) {
  char magic[4];
  in_.read(magic, sizeof(magic));
  if (!in_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace_io: bad magic");
  }
  const auto version = ReadLe<std::uint32_t>(in_);
  if (version != kBlockFormatVersion) {
    throw std::runtime_error("trace_io: unsupported version " +
                             std::to_string(version));
  }
  header_count_ = ReadLe<std::uint64_t>(in_);
}

std::uint32_t TraceReader::ReadRaw() {
  const auto nrec = ReadLe<std::uint32_t>(in_);
  const auto payload_bytes = ReadLe<std::uint32_t>(in_);
  const auto crc = ReadLe<std::uint32_t>(in_);
  if (nrec == 0) {
    // Terminator. The trailer count must match what we handed out, and the
    // header count too when the writer was able to patch it in.
    if (payload_bytes != 0 || crc != 0) {
      throw std::runtime_error("trace_io: malformed terminator block");
    }
    const auto trailer = ReadLe<std::uint64_t>(in_);
    if (trailer != records_read_) {
      throw std::runtime_error("trace_io: trailer count mismatch");
    }
    if (header_count_ != kUnknownCount && header_count_ != records_read_) {
      throw std::runtime_error("trace_io: header count mismatch");
    }
    done_ = true;
    return 0;
  }
  if (nrec > kMaxBlockRecords ||
      payload_bytes != nrec * wire::kRecordWireSize) {
    throw std::runtime_error("trace_io: bad block header");
  }
  raw_.resize(payload_bytes);
  in_.read(reinterpret_cast<char*>(raw_.data()),
           static_cast<std::streamsize>(raw_.size()));
  if (static_cast<std::size_t>(in_.gcount()) != raw_.size()) {
    throw std::runtime_error("trace_io: truncated input");
  }
  if (util::Crc32(raw_.data(), raw_.size()) != crc) {
    throw std::runtime_error("trace_io: block CRC mismatch");
  }
  records_read_ += nrec;
  return nrec;
}

const RecordBlock* TraceReader::NextBlock() {
  if (done_) return nullptr;
  const std::size_t n = ReadRaw();
  if (n == 0) return nullptr;
  block_.DecodeWire(raw_.data(), n);
  return &block_;
}

std::ifstream& TraceFileReader::Checked(std::ifstream& in,
                                        const std::string& path) {
  if (!in) throw std::runtime_error("trace_io: cannot open " + path);
  return in;
}

TraceFileReader::TraceFileReader(const std::string& path)
    : in_(path, std::ios::binary), reader_(Checked(in_, path)) {}

void WriteV2(const TraceBuffer& trace, std::ostream& out,
             std::size_t block_records) {
  TraceWriter writer(out, block_records);
  writer.Append(trace.records());
  writer.Finish();
}

void WriteV2File(const TraceBuffer& trace, const std::string& path,
                 std::size_t block_records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace_io: cannot open " + path);
  WriteV2(trace, out, block_records);
  out.close();
  if (out.fail()) throw std::runtime_error("trace_io: close failed: " + path);
}

TraceBuffer ReadAllRecords(BlockSource& source) {
  TraceBuffer trace;
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    for (std::size_t i = 0; i < block->size(); ++i) trace.Add(block->Row(i));
  }
  return trace;
}

}  // namespace atlas::trace
