// Trace serialization: the v2 binary format through its writer and reader,
// and CSV import/export.
#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "trace/stream.h"
#include "util/rng.h"

namespace atlas::trace {
namespace {

TraceBuffer MakeSampleTrace(std::size_t n) {
  util::Rng rng(17);
  TraceBuffer buf;
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord r;
    r.timestamp_ms = static_cast<std::int64_t>(rng.NextBounded(1000000));
    r.url_hash = rng.Next();
    r.user_id = rng.Next();
    r.object_size = rng.NextBounded(1 << 30);
    r.response_bytes = rng.NextBounded(r.object_size + 1);
    r.publisher_id = static_cast<std::uint32_t>(rng.NextBounded(6));
    r.user_agent_id = static_cast<std::uint16_t>(rng.NextBounded(20));
    r.response_code = rng.NextBool(0.9) ? 200 : 304;
    r.file_type = static_cast<FileType>(rng.NextBounded(kNumFileTypes));
    r.cache_status =
        rng.NextBool(0.8) ? CacheStatus::kHit : CacheStatus::kMiss;
    r.tz_offset_quarter_hours = static_cast<std::int8_t>(
        static_cast<std::int64_t>(rng.NextBounded(69)) - 32);
    buf.Add(r);
  }
  return buf;
}

// Binary traces are the v2 block format (WriteV2 / TraceReader).
TraceBuffer ReadTrace(std::istream& in) {
  TraceReader reader(in);
  return ReadAllRecords(reader);
}

// WriteCsv streams from a BlockSource; an in-memory trace goes through
// BufferBlockSource.
void WriteCsvOf(const TraceBuffer& trace, std::ostream& out) {
  BufferBlockSource source(trace);
  EXPECT_EQ(WriteCsv(source, out), trace.size());
}

TEST(BinaryIoTest, RoundTripPreservesEveryField) {
  const TraceBuffer original = MakeSampleTrace(500);
  std::stringstream stream;
  WriteV2(original, stream);
  const TraceBuffer loaded = ReadTrace(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]) << "record " << i;
  }
}

TEST(BinaryIoTest, EmptyTrace) {
  std::stringstream stream;
  WriteV2(TraceBuffer{}, stream);
  EXPECT_EQ(ReadTrace(stream).size(), 0u);
}

TEST(BinaryIoTest, BadMagicRejected) {
  std::stringstream stream("NOPE00000000");
  EXPECT_THROW(ReadTrace(stream), std::runtime_error);
}

TEST(BinaryIoTest, TruncatedInputRejected) {
  const TraceBuffer original = MakeSampleTrace(10);
  std::stringstream stream;
  WriteV2(original, stream);
  std::string data = stream.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(ReadTrace(truncated), std::runtime_error);
}

TEST(BinaryIoTest, VersionMismatchRejected) {
  std::stringstream stream;
  WriteV2(TraceBuffer{}, stream);
  std::string data = stream.str();
  data[4] = 99;  // clobber version byte
  std::stringstream bad(data);
  EXPECT_THROW(ReadTrace(bad), std::runtime_error);
}

TEST(BinaryIoTest, FileRoundTrip) {
  const TraceBuffer original = MakeSampleTrace(50);
  const std::string path = ::testing::TempDir() + "/atlas_trace_test.bin";
  WriteV2File(original, path);
  TraceFileReader reader(path);
  const TraceBuffer loaded = ReadAllRecords(reader);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded[17], original[17]);
}

TEST(BinaryIoTest, MissingFileThrows) {
  EXPECT_THROW(TraceFileReader("/nonexistent/path/x.bin"), std::runtime_error);
}

TEST(CsvIoTest, RoundTrip) {
  const TraceBuffer original = MakeSampleTrace(100);
  std::stringstream stream;
  WriteCsvOf(original, stream);
  const TraceBuffer loaded = ReadCsv(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]) << "record " << i;
  }
}

TEST(CsvIoTest, HeaderPresent) {
  std::stringstream stream;
  WriteCsvOf(MakeSampleTrace(1), stream);
  std::string header;
  std::getline(stream, header);
  EXPECT_NE(header.find("timestamp_ms"), std::string::npos);
  EXPECT_NE(header.find("cache_status"), std::string::npos);
}

TEST(CsvIoTest, BadFieldCountRejected) {
  std::stringstream stream("h1,h2\n1,2\n");
  EXPECT_THROW(ReadCsv(stream), std::runtime_error);
}

// Property test: randomized records exercising the schema's corners — every
// response code the paper reports (200/204/206/304/403/416, including the
// anomaly-produced 204/403/416 with zero response bytes), zero-byte objects,
// and objects past 4 GiB (sizes must not be squeezed through 32 bits
// anywhere) — survive binary -> CSV -> binary unchanged, and the two binary
// serializations are byte-identical.
TEST(RoundTripPropertyTest, BinaryCsvBinaryPreservesRandomizedRecords) {
  util::Rng rng(20260806);
  const std::uint16_t kCodes[] = {200, 204, 206, 304, 403, 416};

  TraceBuffer original;
  for (std::size_t i = 0; i < 2000; ++i) {
    LogRecord r;
    r.timestamp_ms = static_cast<std::int64_t>(
        rng.NextBounded(7ULL * 24 * 3600 * 1000 + 1));
    r.url_hash = rng.Next();
    r.user_id = rng.Next();
    switch (rng.NextBounded(4)) {
      case 0:  // zero-byte object (beacons, empty placeholders)
        r.object_size = 0;
        break;
      case 1:  // > 4 GiB: must round-trip through 64-bit fields intact
        r.object_size = (4ULL << 30) + rng.NextBounded(1ULL << 40);
        break;
      default:
        r.object_size = rng.NextBounded(1ULL << 30);
        break;
    }
    r.response_code = kCodes[rng.NextBounded(std::size(kCodes))];
    switch (r.response_code) {
      case kHttpNoContent:          // beacon (Anomaly::kBeacon)
      case kHttpNotModified:
      case kHttpForbidden:          // hotlink (Anomaly::kHotlink)
      case kHttpRangeNotSatisfiable:  // bad range (Anomaly::kBadRange)
        r.response_bytes = 0;
        break;
      default:
        r.response_bytes = rng.NextBounded(r.object_size + 1);
        break;
    }
    r.publisher_id = static_cast<std::uint32_t>(rng.Next());
    r.user_agent_id = static_cast<std::uint16_t>(rng.NextBounded(1 << 16));
    r.file_type = static_cast<FileType>(rng.NextBounded(kNumFileTypes));
    r.cache_status =
        rng.NextBool(0.5) ? CacheStatus::kHit : CacheStatus::kMiss;
    r.tz_offset_quarter_hours = static_cast<std::int8_t>(
        static_cast<std::int64_t>(rng.NextBounded(113)) - 56);
    original.Add(r);
  }

  // binary -> buffer
  std::stringstream bin1;
  WriteV2(original, bin1);
  const TraceBuffer from_binary = ReadTrace(bin1);
  ASSERT_EQ(from_binary.size(), original.size());

  // -> CSV -> buffer
  std::stringstream csv;
  WriteCsvOf(from_binary, csv);
  const TraceBuffer from_csv = ReadCsv(csv);
  ASSERT_EQ(from_csv.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(from_csv[i], original[i]) << "record " << i;
  }

  // -> binary again: byte-identical to the first serialization.
  std::stringstream bin2;
  WriteV2(from_csv, bin2);
  EXPECT_EQ(bin1.str(), bin2.str());
}

TEST(BinaryIoTest, HugeDeclaredCountFailsCleanlyNotOom) {
  // A corrupt header declaring ~2^60 records must not drive an allocation:
  // the count is attacker-controlled until records actually parse, so the
  // reader only checks it against the blocks it delivered.
  std::stringstream stream;
  WriteV2(MakeSampleTrace(3), stream);
  std::string data = stream.str();
  const std::uint64_t huge = 1ULL << 60;
  for (int i = 0; i < 8; ++i) {
    data[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  std::stringstream bad(data);
  EXPECT_THROW(ReadTrace(bad), std::runtime_error);  // not std::bad_alloc
}

TEST(BinaryIoTest, NegativeTimestampRejected) {
  // The wire format stores timestamp_ms as two's complement; a negative
  // value can only come from corruption and every consumer assumes
  // non-negative clocks. The writer encodes it as given; the block decode
  // must reject it even under an intact CRC.
  TraceBuffer buf = MakeSampleTrace(2);
  buf.mutable_records()[1].timestamp_ms = -5;
  std::stringstream stream;
  WriteV2(buf, stream);
  EXPECT_THROW(ReadTrace(stream), std::runtime_error);
}

TEST(CsvIoTest, NegativeTimestampRejected) {
  TraceBuffer buf = MakeSampleTrace(1);
  std::stringstream stream;
  WriteCsvOf(buf, stream);
  std::string text = stream.str();
  const auto row = text.find('\n') + 1;
  text.insert(row, "-");  // timestamp_ms is the first field
  std::stringstream bad(text);
  EXPECT_THROW(ReadCsv(bad), std::runtime_error);
}

TEST(CsvIoTest, ClassMismatchRejected) {
  // Build a valid row, then claim an mp4 is an image.
  TraceBuffer buf = MakeSampleTrace(1);
  buf.mutable_records()[0].file_type = FileType::kMp4;
  std::stringstream stream;
  WriteCsvOf(buf, stream);
  std::string text = stream.str();
  const auto pos = text.find(",video,");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, ",image,");
  std::stringstream bad(text);
  EXPECT_THROW(ReadCsv(bad), std::runtime_error);
}

// Serializes one sample record to CSV, then replaces the data row's
// `field_index`-th column with `value`. No field contains an embedded comma,
// so a plain split is exact.
std::string CsvWithField(std::size_t field_index, const std::string& value) {
  std::stringstream stream;
  WriteCsvOf(MakeSampleTrace(1), stream);
  const std::string text = stream.str();
  const auto row_begin = text.find('\n') + 1;
  std::string row = text.substr(row_begin);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  std::vector<std::string> fields;
  std::stringstream ss(row);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  fields.at(field_index) = value;
  std::string out = text.substr(0, row_begin);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += fields[i];
    out += i + 1 < fields.size() ? "," : "\n";
  }
  return out;
}

// Regression: narrow record columns used to be filled with a bare
// static_cast, so a publisher_id of 2^32 silently became publisher 0 and
// all its traffic was misattributed. Out-of-range values must be rejected.
TEST(CsvIoTest, PublisherIdOverflowRejected) {
  std::stringstream bad(CsvWithField(5, "4294967296"));  // 2^32
  EXPECT_THROW(ReadCsv(bad), std::runtime_error);
}

TEST(CsvIoTest, UserAgentIdOverflowRejected) {
  std::stringstream bad(CsvWithField(6, "65536"));  // 2^16
  EXPECT_THROW(ReadCsv(bad), std::runtime_error);
}

TEST(CsvIoTest, ResponseCodeOverflowRejected) {
  std::stringstream bad(CsvWithField(7, "70000"));
  EXPECT_THROW(ReadCsv(bad), std::runtime_error);
}

TEST(CsvIoTest, TzOffsetOverflowRejected) {
  std::stringstream high(CsvWithField(11, "128"));
  EXPECT_THROW(ReadCsv(high), std::runtime_error);
  std::stringstream low(CsvWithField(11, "-129"));
  EXPECT_THROW(ReadCsv(low), std::runtime_error);
}

TEST(CsvIoTest, NarrowFieldBoundaryValuesAccepted) {
  // The validation must not over-reject: the exact type maxima are legal.
  std::stringstream max_pub(CsvWithField(5, "4294967295"));
  EXPECT_EQ(ReadCsv(max_pub)[0].publisher_id, 4294967295u);
  std::stringstream min_tz(CsvWithField(11, "-128"));
  EXPECT_EQ(ReadCsv(min_tz)[0].tz_offset_quarter_hours, -128);
}

// Accepts `capacity` bytes, then fails every write — a disk that fills up
// mid-stream. An ofstream over a full disk behaves exactly like this: the
// writer sees no error until a flush, and a destructor-driven flush swallows
// it entirely. The writers must flush and check before reporting success.
class FullDiskBuf : public std::streambuf {
 public:
  explicit FullDiskBuf(std::size_t capacity) : capacity_(capacity) {}

 protected:
  int overflow(int ch) override {
    if (written_ >= capacity_) return traits_type::eof();
    ++written_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    if (written_ + static_cast<std::size_t>(n) > capacity_) {
      // Short write: only part of the buffer fits.
      const auto fit = capacity_ - written_;
      written_ = capacity_;
      return static_cast<std::streamsize>(fit);
    }
    written_ += static_cast<std::size_t>(n);
    return n;
  }

 private:
  std::size_t capacity_;
  std::size_t written_ = 0;
};

TEST(FailingStreamTest, WriteBinarySurfacesShortWrite) {
  const TraceBuffer trace = MakeSampleTrace(100);
  FullDiskBuf buf(64);  // header fits, records don't
  std::ostream out(&buf);
  EXPECT_THROW(WriteV2(trace, out), std::runtime_error);
}

TEST(FailingStreamTest, WriteCsvSurfacesShortWrite) {
  const TraceBuffer trace = MakeSampleTrace(100);
  FullDiskBuf buf(256);
  std::ostream out(&buf);
  EXPECT_THROW(WriteCsvOf(trace, out), std::runtime_error);
}

TEST(FailingStreamTest, WriteBinaryToHealthySinkStillSucceeds) {
  // The failure check must not reject a sink that merely buffers lazily.
  const TraceBuffer trace = MakeSampleTrace(10);
  std::ostringstream out;
  EXPECT_NO_THROW(WriteV2(trace, out));
}

}  // namespace
}  // namespace atlas::trace
