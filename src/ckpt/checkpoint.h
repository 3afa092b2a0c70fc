// atlas::ckpt — crash-consistent checkpoint/restore for pipeline state.
//
// A checkpoint is a flat file of named, versioned, CRC-checked sections:
//
//   magic "ACKP" | u32 format_version
//   section*:  u32 name_len | name bytes | u32 section_version
//              | u64 payload_bytes | u32 crc32(payload) | payload
//   end:       u32 0 | u64 section_count
//
// All integers are little-endian. The Writer frames each section in memory
// and stamps its length and CRC on EndSection(); the Reader scans the whole
// file up front, validating the magic, format version, every section CRC,
// and the trailing section count before any state is handed out. A
// truncated, corrupted, or version-bumped checkpoint therefore fails loudly
// at open time — never with a wrong-but-plausible restore.
//
// A Writer built without a stream keeps every section it frames, so
// sections can be encoded on worker threads, one stream-less Writer each,
// and then appended to the file Writer in a fixed order (Append). The file
// is byte-for-byte the one a single Writer would have produced.
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

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace atlas::ckpt {

// Bumped when the container layout above changes shape.
inline constexpr std::uint32_t kFormatVersion = 1;

// Serializes named sections of typed primitives, to a stream or to memory.
class Writer {
 public:
  // A stream-less writer: it keeps the sections it frames until a file
  // Writer appends them.
  Writer() = default;
  // Writes the file header now and each section as it ends.
  explicit Writer(std::ostream& out);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Starts a named section. Names must be unique within a checkpoint and
  // non-empty; `version` stamps the section layout.
  void BeginSection(const std::string& name, std::uint32_t version);
  // Stamps the section's length and CRC; a stream writer writes it out.
  void EndSection();
  // Writes the end marker and trailing section count. Idempotent.
  void Finish();
  // Writes the sections a stream-less writer framed, in the order it framed
  // them, exactly as if they had been written here; their CRCs stand as
  // stamped. This writer needs a stream and must not be finished, and
  // neither writer may have a section open.
  void Append(const Writer& sections);

  // Typed primitives; all require an open section.
  void WriteU8(std::uint8_t v) { PutLe(v); }
  void WriteU32(std::uint32_t v) { PutLe(v); }
  void WriteU64(std::uint64_t v) { PutLe(v); }
  void WriteI64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v)); }
  void WriteDouble(double v) { PutLe(std::bit_cast<std::uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteString(const std::string& v);
  void WriteBytes(const void* data, std::size_t size);

  // First field of every SaveState blob (see header comment).
  void WriteVersion(std::uint32_t v) { WriteU32(v); }

 private:
  // Reserves `size` bytes at the end of the open section and returns them.
  unsigned char* Grow(std::size_t size) {
    if (!in_section_) [[unlikely]] FailOutsideSection();
    if (capacity_ - size_ < size) [[unlikely]] Reserve(size);
    unsigned char* p = data_ + size_;
    size_ += size;
    return p;
  }
  template <typename T>
  void PutLe(T v) {
    unsigned char* p = Grow(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<unsigned char>(v >> (8 * i));
      }
    }
  }
  [[noreturn]] static void FailOutsideSection();
  // Grows the buffer so `extra` more bytes fit.
  void Reserve(std::size_t extra);
  // Appends raw bytes with no section check (framing).
  void PutRaw(const void* data, std::size_t size);

  std::ostream* out_ = nullptr;
  // Framed sections not yet written: the open one, plus every ended one
  // when there is no stream. Large buffers are mapped from the kernel
  // (util::PageAllocator), so a worker thread's encode buffer does not stay
  // in its malloc arena once it is freed.
  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  // Offset in data_ of the open section's payload.
  std::size_t payload_at_ = 0;
  std::string section_name_;
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
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int64_t ReadI64();
  double ReadDouble();
  bool ReadBool();
  std::string ReadString();
  std::vector<unsigned char> ReadBytes();
  // Reads a u64 element count and checks that that many items of at least
  // `item_bytes` each fit in the rest of the section, so a corrupt count
  // fails here and never sizes an allocation.
  std::uint64_t ReadCount(std::size_t item_bytes);

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

// Writes a checkpoint atomically: `fill` populates sections on a Writer
// bound to "<path>.tmp"; on success the temp file is flushed, closed, and
// renamed over `path`. Throws on any I/O failure (temp file removed).
void WriteCheckpointFile(const std::string& path,
                         const std::function<void(Writer&)>& fill);

// Opens and fully validates `path` (see Reader). The returned Reader holds
// all section payloads in memory; the file is not needed afterwards.
Reader ReadCheckpointFile(const std::string& path);

}  // namespace atlas::ckpt
