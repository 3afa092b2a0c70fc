// atlas::ckpt — crash-consistent checkpoint/restore for pipeline state.
//
// A checkpoint is a flat file of named, versioned, CRC-checked sections:
//
//   magic "ACKP" | u32 format_version
//   section*:  u32 name_len | name bytes | u32 section_version
//              | u64 payload_bytes | u32 crc32(payload) | payload
//   end:       u32 0 | u64 section_count
//
// All integers are little-endian. The Writer buffers one section at a time
// and stamps its CRC on EndSection(); the Reader scans the whole file up
// front, validating the magic, format version, every section CRC, and the
// trailing section count before any state is handed out. A truncated,
// corrupted, or version-bumped checkpoint therefore fails loudly at open
// time — never with a wrong-but-plausible restore.
//
// Convention: every object's SaveState() writes its own u32 state-version
// as the first field of its blob (WriteVersion), and RestoreState() checks
// it first (ExpectVersion). Orchestrators that own several objects open one
// named section per object (or group) so blobs stay independently versioned
// and discoverable. Raw ostream writes are forbidden in SaveState
// implementations outside this directory (lint rule `ckpt-unversioned-blob`).
//
// Checkpoint files are committed atomically: WriteCheckpointFile() writes
// "<path>.tmp", flushes, then renames over <path>, so a crash mid-save
// leaves the previous checkpoint intact.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace atlas::ckpt {

// Bumped when the container layout above changes shape.
inline constexpr std::uint32_t kFormatVersion = 1;

// Serializes named sections of typed primitives to a stream.
class Writer {
 public:
  explicit Writer(std::ostream& out);

  // Starts a named section. Names must be unique within a checkpoint and
  // non-empty; `version` stamps the section layout.
  void BeginSection(const std::string& name, std::uint32_t version);
  // Stamps the CRC and writes the buffered section to the stream.
  void EndSection();
  // Writes the end marker and trailing section count. Idempotent.
  void Finish();

  // Typed primitives; all require an open section.
  void WriteU8(std::uint8_t v);
  void WriteU16(std::uint16_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& v);
  void WriteBytes(const void* data, std::size_t size);
  void WriteVecU64(const std::vector<std::uint64_t>& v);
  void WriteVecDouble(const std::vector<double>& v);

  // First field of every Checkpointable blob (see header comment).
  void WriteVersion(std::uint32_t v) { WriteU32(v); }


 private:
  void Put(const void* data, std::size_t size);

  std::ostream& out_;
  std::vector<unsigned char> payload_;
  std::string section_name_;
  std::uint32_t section_version_ = 0;
  std::uint64_t sections_ = 0;
  bool in_section_ = false;
  bool finished_ = false;
};

// Parses and fully validates a checkpoint, then serves sections by name.
class Reader {
 public:
  // Scans `in` to the end marker, validating magic, format version, every
  // section CRC, and the section count. Throws std::runtime_error with a
  // "ckpt: ..." message on any defect.
  explicit Reader(std::istream& in);

  bool HasSection(const std::string& name) const;
  // Opens a section for reading and returns its stamped version.
  std::uint32_t BeginSection(const std::string& name);
  // Opens a section and requires its version to equal `expected`.
  void BeginSection(const std::string& name, std::uint32_t expected);
  // Closes the open section; throws if unread bytes remain (a layout
  // mismatch restore must not paper over).
  void EndSection();

  std::uint8_t ReadU8();
  std::uint16_t ReadU16();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int64_t ReadI64();
  double ReadDouble();
  bool ReadBool();
  std::string ReadString();
  std::vector<unsigned char> ReadBytes();
  std::vector<std::uint64_t> ReadVecU64();
  std::vector<double> ReadVecDouble();

  // Reads a blob's leading state-version and throws a clear error naming
  // `what` if it differs from `expected`.
  void ExpectVersion(const std::string& what, std::uint32_t expected);

  std::size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    std::uint32_t version = 0;
    std::vector<unsigned char> payload;
  };

  const unsigned char* Take(std::size_t size);

  std::map<std::string, Section> sections_;
  const Section* cur_ = nullptr;
  std::string cur_name_;
  std::size_t pos_ = 0;
};

// Anything that can snapshot its mutable state into a checkpoint and later
// restore it exactly. Implementations must write only through the Writer's
// typed, versioned API and must begin their blob with WriteVersion().
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void SaveState(Writer& w) const = 0;
  virtual void RestoreState(Reader& r) = 0;
};

// Writes a checkpoint atomically: `fill` populates sections on a Writer
// bound to "<path>.tmp"; on success the temp file is flushed, closed, and
// renamed over `path`. Throws on any I/O failure (temp file removed).
void WriteCheckpointFile(const std::string& path,
                         const std::function<void(Writer&)>& fill);

// Opens and fully validates `path` (see Reader). The returned Reader holds
// all section payloads in memory; the file is not needed afterwards.
Reader ReadCheckpointFile(const std::string& path);

}  // namespace atlas::ckpt
