#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/hash.h"
#include "util/page_alloc.h"

namespace atlas::ckpt {
namespace {

constexpr char kMagic[4] = {'A', 'C', 'K', 'P'};
// Sanity bounds: a single section name or payload larger than these is a
// corrupted length field, not a real checkpoint.
constexpr std::uint32_t kMaxSectionName = 1u << 10;
constexpr std::uint64_t kMaxSectionBytes = 1ull << 34;  // 16 GiB
// A section header's trailing u64 payload_bytes and u32 crc32.
constexpr std::size_t kStampBytes = 12;
// First buffer a Writer allocates; it doubles from there.
constexpr std::size_t kMinBufferBytes = 4096;

[[noreturn]] void Fail(const std::string& message) {
  throw std::runtime_error("ckpt: " + message);
}

template <typename T>
void StoreLe(unsigned char* dst, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xffu);
  }
}

template <typename T>
T LoadLe(const unsigned char* src) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>(value | (static_cast<T>(src[i]) << (8 * i)));
  }
  return value;
}

template <typename T>
void WriteLe(std::ostream& out, T value) {
  unsigned char buf[sizeof(T)];
  StoreLe(buf, value);
  out.write(reinterpret_cast<const char*>(buf), sizeof(T));
}

template <typename T>
bool ReadLe(std::istream& in, T* value) {
  unsigned char buf[sizeof(T)];
  in.read(reinterpret_cast<char*>(buf), sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) return false;
  *value = LoadLe<T>(buf);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

Writer::Writer(std::ostream& out) : out_(&out) {
  out.write(kMagic, sizeof(kMagic));
  WriteLe<std::uint32_t>(out, kFormatVersion);
  if (!out) Fail("write failed (header)");
}

Writer::~Writer() {
  if (data_ != nullptr) {
    util::PageAllocator<unsigned char>().deallocate(data_, capacity_);
  }
}

void Writer::FailOutsideSection() { Fail("write outside section"); }

void Writer::Reserve(std::size_t extra) {
  if (extra > std::numeric_limits<std::size_t>::max() / 2 - size_) {
    Fail("section too large");
  }
  std::size_t capacity = std::max<std::size_t>(capacity_, kMinBufferBytes);
  while (capacity - size_ < extra) capacity *= 2;
  util::PageAllocator<unsigned char> alloc;
  unsigned char* data = alloc.allocate(capacity);
  if (size_ > 0) std::memcpy(data, data_, size_);
  if (data_ != nullptr) alloc.deallocate(data_, capacity_);
  data_ = data;
  capacity_ = capacity;
}

void Writer::PutRaw(const void* data, std::size_t size) {
  if (capacity_ - size_ < size) Reserve(size);
  std::memcpy(data_ + size_, data, size);
  size_ += size;
}

void Writer::BeginSection(const std::string& name, std::uint32_t version) {
  if (finished_) Fail("BeginSection after Finish");
  if (in_section_) Fail("BeginSection inside open section '" + section_name_ + "'");
  if (name.empty()) Fail("section name must be non-empty");
  if (name.size() >= kMaxSectionName) Fail("section name too long");
  section_name_ = name;
  // name_len | name | version | payload_bytes | crc, the last two stamped
  // by EndSection once the payload is known.
  unsigned char word[4];
  StoreLe(word, static_cast<std::uint32_t>(name.size()));
  PutRaw(word, sizeof(word));
  PutRaw(name.data(), name.size());
  StoreLe(word, version);
  PutRaw(word, sizeof(word));
  const unsigned char stamp[kStampBytes] = {};
  PutRaw(stamp, sizeof(stamp));
  payload_at_ = size_;
  in_section_ = true;
}

void Writer::EndSection() {
  if (!in_section_) Fail("EndSection without open section");
  const std::size_t payload_bytes = size_ - payload_at_;
  unsigned char* stamp = data_ + payload_at_ - kStampBytes;
  StoreLe(stamp, static_cast<std::uint64_t>(payload_bytes));
  StoreLe(stamp + 8, util::Crc32(data_ + payload_at_, payload_bytes));
  in_section_ = false;
  ++sections_;
  if (out_ == nullptr) return;  // kept until a file Writer appends it
  out_->write(reinterpret_cast<const char*>(data_),
              static_cast<std::streamsize>(size_));
  size_ = 0;
  if (!*out_) Fail("write failed (section '" + section_name_ + "')");
}

void Writer::Append(const Writer& sections) {
  if (out_ == nullptr) Fail("Append to a writer with no stream");
  if (finished_) Fail("Append after Finish");
  if (in_section_) Fail("Append inside open section '" + section_name_ + "'");
  if (sections.in_section_) {
    Fail("Append of open section '" + sections.section_name_ + "'");
  }
  if (sections.out_ != nullptr) Fail("Append of a stream writer");
  out_->write(reinterpret_cast<const char*>(sections.data_),
              static_cast<std::streamsize>(sections.size_));
  if (!*out_) Fail("write failed (appended sections)");
  sections_ += sections.sections_;
}

void Writer::Finish() {
  if (finished_) return;
  if (in_section_) Fail("Finish inside open section '" + section_name_ + "'");
  if (out_ == nullptr) Fail("Finish on a writer with no stream");
  WriteLe<std::uint32_t>(*out_, 0);  // end marker: zero-length name
  WriteLe<std::uint64_t>(*out_, sections_);
  out_->flush();
  if (!*out_) Fail("write failed (trailer)");
  finished_ = true;
}

void Writer::WriteString(const std::string& v) {
  if (v.size() > std::numeric_limits<std::uint32_t>::max()) {
    Fail("string too long");
  }
  WriteU32(static_cast<std::uint32_t>(v.size()));
  if (!v.empty()) std::memcpy(Grow(v.size()), v.data(), v.size());
}

void Writer::WriteBytes(const void* data, std::size_t size) {
  WriteU64(static_cast<std::uint64_t>(size));
  if (size > 0) std::memcpy(Grow(size), data, size);
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    Fail("bad magic (not a checkpoint file)");
  }
  std::uint32_t format = 0;
  if (!ReadLe(in, &format)) Fail("truncated checkpoint (no format version)");
  if (format != kFormatVersion) {
    Fail("unsupported format version " + std::to_string(format) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  bool terminated = false;
  while (true) {
    std::uint32_t name_len = 0;
    if (!ReadLe(in, &name_len)) break;  // truncated: no end marker seen
    if (name_len == 0) {
      std::uint64_t declared = 0;
      if (!ReadLe(in, &declared)) Fail("truncated checkpoint (no trailer)");
      if (declared != sections_.size()) {
        Fail("section count mismatch (trailer says " + std::to_string(declared) +
             ", file has " + std::to_string(sections_.size()) + ")");
      }
      terminated = true;
      break;
    }
    if (name_len >= kMaxSectionName) Fail("corrupt section name length");
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (in.gcount() != static_cast<std::streamsize>(name_len)) {
      Fail("truncated checkpoint (section name)");
    }
    Section section;
    std::uint64_t payload_bytes = 0;
    std::uint32_t crc = 0;
    if (!ReadLe(in, &section.version) || !ReadLe(in, &payload_bytes) ||
        !ReadLe(in, &crc)) {
      Fail("truncated checkpoint (section header for '" + name + "')");
    }
    if (payload_bytes > kMaxSectionBytes) Fail("corrupt section length");
    section.payload.resize(static_cast<std::size_t>(payload_bytes));
    in.read(reinterpret_cast<char*>(section.payload.data()),
            static_cast<std::streamsize>(payload_bytes));
    if (in.gcount() != static_cast<std::streamsize>(payload_bytes)) {
      Fail("truncated checkpoint (payload of '" + name + "')");
    }
    if (util::Crc32(section.payload.data(), section.payload.size()) != crc) {
      Fail("section CRC mismatch in '" + name + "'");
    }
    if (!sections_.emplace(std::move(name), std::move(section)).second) {
      Fail("duplicate section");
    }
  }
  if (!terminated) Fail("truncated checkpoint (no end marker)");
}

bool Reader::HasSection(const std::string& name) const {
  return sections_.count(name) != 0;
}

std::uint32_t Reader::BeginSection(const std::string& name) {
  if (cur_ != nullptr) {
    Fail("BeginSection('" + name + "') inside open section '" + cur_name_ + "'");
  }
  auto it = sections_.find(name);
  if (it == sections_.end()) Fail("missing section '" + name + "'");
  cur_ = &it->second;
  cur_name_ = name;
  pos_ = 0;
  return it->second.version;
}

void Reader::BeginSection(const std::string& name, std::uint32_t expected) {
  const std::uint32_t got = BeginSection(name);
  if (got != expected) {
    cur_ = nullptr;
    Fail("section '" + name + "' version mismatch (file v" +
         std::to_string(got) + ", code expects v" + std::to_string(expected) +
         ")");
  }
}

void Reader::EndSection() {
  if (cur_ == nullptr) Fail("EndSection without open section");
  if (pos_ != cur_->payload.size()) {
    Fail("section '" + cur_name_ + "' has " +
         std::to_string(cur_->payload.size() - pos_) +
         " unread bytes (layout mismatch)");
  }
  cur_ = nullptr;
}

const unsigned char* Reader::Take(std::size_t size) {
  if (cur_ == nullptr) Fail("read outside section");
  if (cur_->payload.size() - pos_ < size) {
    Fail("read past end of section '" + cur_name_ + "'");
  }
  const unsigned char* p = cur_->payload.data() + pos_;
  pos_ += size;
  return p;
}

std::uint8_t Reader::ReadU8() { return *Take(1); }
std::uint32_t Reader::ReadU32() { return LoadLe<std::uint32_t>(Take(4)); }
std::uint64_t Reader::ReadU64() { return LoadLe<std::uint64_t>(Take(8)); }

std::int64_t Reader::ReadI64() {
  return static_cast<std::int64_t>(ReadU64());
}

double Reader::ReadDouble() {
  const std::uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::ReadBool() {
  const std::uint8_t v = ReadU8();
  if (v > 1) Fail("corrupt bool in section '" + cur_name_ + "'");
  return v == 1;
}

std::string Reader::ReadString() {
  const std::uint32_t size = ReadU32();
  const unsigned char* p = Take(size);
  return std::string(reinterpret_cast<const char*>(p), size);
}

std::vector<unsigned char> Reader::ReadBytes() {
  const std::uint64_t size = ReadU64();
  const unsigned char* p = Take(static_cast<std::size_t>(size));
  return std::vector<unsigned char>(p, p + size);
}

std::uint64_t Reader::ReadCount(std::size_t item_bytes) {
  const std::uint64_t count = ReadU64();
  const std::size_t left = cur_->payload.size() - pos_;
  // Divide rather than multiply: count * item_bytes can wrap.
  if (count > left / std::max<std::size_t>(item_bytes, 1)) {
    Fail("corrupt element count " + std::to_string(count) + " in section '" +
         cur_name_ + "'");
  }
  return count;
}

void Reader::ExpectVersion(const std::string& what, std::uint32_t expected) {
  const std::uint32_t got = ReadU32();
  if (got != expected) {
    Fail(what + " state version mismatch (file v" + std::to_string(got) +
         ", code expects v" + std::to_string(expected) + ")");
  }
}

// ---------------------------------------------------------------------------
// File helpers

void WriteCheckpointFile(const std::string& path,
                         const std::function<void(Writer&)>& fill) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) Fail("cannot open '" + tmp + "' for writing");
      Writer writer(out);
      fill(writer);
      writer.Finish();
      out.close();
      if (out.fail()) Fail("close failed for '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) Fail("rename '" + tmp + "' -> '" + path + "': " + ec.message());
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

Reader ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot open '" + path + "' for reading");
  return Reader(in);
}

}  // namespace atlas::ckpt
