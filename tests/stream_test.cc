#include "trace/stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/suite.h"
#include "scenario_fixtures.h"
#include "trace/useragent.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/rng.h"

namespace atlas::trace {
namespace {

TraceBuffer MakeSampleTrace(std::size_t n, std::uint64_t seed = 17) {
  util::Rng rng(seed);
  TraceBuffer buf;
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    LogRecord r;
    ts += static_cast<std::int64_t>(rng.NextBounded(500));
    r.timestamp_ms = ts;  // non-decreasing, like every ATLAS producer
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

std::string SerializeV2(const TraceBuffer& buf,
                        std::size_t block_records = kDefaultBlockRecords) {
  std::stringstream out;
  WriteV2(buf, out, block_records);
  return out.str();
}

// Reads through TraceReader::NextBlock, the one decoder every reader uses:
// corrupt input must fail loudly there — never a short silent read.
TraceBuffer Drain(const std::string& data) {
  std::stringstream in(data);
  TraceReader reader(in);
  return ReadAllRecords(reader);
}

// v2 layout offsets (see stream.h): 4 magic + 4 version + 8 count.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kCountOffset = 8;
// Per block: 4 nrec + 4 payload_bytes + 4 crc, then the payload.
constexpr std::size_t kBlockHeaderBytes = 12;

void PatchU32(std::string& data, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    data[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

void PatchU64(std::string& data, std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    data[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

// --- CRC32 --------------------------------------------------------------------

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(util::Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "streaming trace pipeline";
  const auto whole = util::Crc32(data, 24);
  const auto first = util::Crc32(data, 10);
  EXPECT_EQ(util::Crc32(data + 10, 14, first), whole);
  EXPECT_NE(util::Crc32(data, 23), whole);
}

// --- v2 round trips -----------------------------------------------------------

TEST(StreamRoundTripTest, PreservesEveryField) {
  const TraceBuffer original = MakeSampleTrace(500);
  const TraceBuffer loaded = Drain(SerializeV2(original));
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i], original[i]) << "record " << i;
  }
}

TEST(StreamRoundTripTest, EmptyTrace) {
  const std::string data = SerializeV2(TraceBuffer{});
  EXPECT_EQ(Drain(data).size(), 0u);
}

TEST(StreamRoundTripTest, BlockBoundaries) {
  // One short block, an exact multiple, and a ragged tail.
  for (const std::size_t n : {1UL, 8UL, 24UL, 25UL, 31UL}) {
    const TraceBuffer original = MakeSampleTrace(n, n);
    const TraceBuffer loaded =
        Drain(SerializeV2(original, /*block_records=*/8));
    ASSERT_EQ(loaded.size(), n);
    EXPECT_EQ(loaded[n - 1], original[n - 1]);
  }
}

TEST(StreamRoundTripTest, WriterCountsRecords) {
  std::stringstream out;
  TraceWriter writer(out, /*block_records=*/4);
  const TraceBuffer buf = MakeSampleTrace(10);
  for (const auto& r : buf.records()) writer.Add(r);
  writer.Finish();
  writer.Finish();  // idempotent
  EXPECT_EQ(writer.written(), 10u);
  // A seekable sink gets the count patched into the header.
  std::stringstream in(out.str());
  const ScanResult scan = ScanV2Blocks(in);
  EXPECT_TRUE(scan.error.empty()) << scan.error;
  ASSERT_TRUE(scan.header_count.has_value());
  EXPECT_EQ(*scan.header_count, 10u);
}

TEST(StreamRoundTripTest, UnknownCountSentinelReadsViaTrailer) {
  // A writer on a non-seekable sink leaves the header at the sentinel; the
  // reader then only learns (and verifies) the count from the trailer.
  const TraceBuffer original = MakeSampleTrace(50);
  std::string data = SerializeV2(original);
  PatchU64(data, kCountOffset, kUnknownCount);
  std::stringstream scan_in(data);
  EXPECT_FALSE(ScanV2Blocks(scan_in).header_count.has_value());
  std::stringstream in(data);
  TraceReader reader(in);
  TraceBuffer loaded = ReadAllRecords(reader);
  ASSERT_EQ(loaded.size(), 50u);
  EXPECT_EQ(loaded[49], original[49]);
}

TEST(StreamCorruptionTest, BadMagicRejected) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  data[0] = 'X';
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, UnsupportedVersionRejected) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU32(data, 4, 99);
  EXPECT_THROW(Drain(data), std::runtime_error);
  // The retired flat format is refused at open, by its version number.
  PatchU32(data, 4, 1);
  try {
    Drain(data);
    ADD_FAILURE() << "a version 1 header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(StreamCorruptionTest, PayloadBitFlipFailsCrc) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  data[kHeaderBytes + kBlockHeaderBytes + 5] ^= 0x01;
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, TruncationMidPayloadRejected) {
  std::string data = SerializeV2(MakeSampleTrace(100));
  data.resize(kHeaderBytes + kBlockHeaderBytes + 17);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, TruncationMidBlockHeaderRejected) {
  std::string data = SerializeV2(MakeSampleTrace(100));
  data.resize(kHeaderBytes + 2);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, MissingTerminatorRejected) {
  // Chop the terminator + trailer: an abandoned writer must not read as a
  // complete (shorter) stream.
  std::string data = SerializeV2(MakeSampleTrace(10));
  data.resize(data.size() - (kBlockHeaderBytes + 8));
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, OversizedBlockCountRejected) {
  // nrec beyond kMaxBlockRecords must be rejected before any allocation
  // sized from it.
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU32(data, kHeaderBytes,
           static_cast<std::uint32_t>(kMaxBlockRecords + 1));
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, InconsistentPayloadLengthRejected) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU32(data, kHeaderBytes + 4, 123);  // != nrec * record size
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, HeaderCountMismatchRejected) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU64(data, kCountOffset, 11);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, TrailerMismatchRejected) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU64(data, data.size() - 8, 9);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

// Defects aimed at the column decode: `NextBlock` decodes a whole CRC block
// into columns at once, so a block whose framing disagrees with its payload
// must fail before any column is filled.

TEST(StreamCorruptionTest, BatchTruncationMidBlockRejected) {
  std::string data = SerializeV2(MakeSampleTrace(100));
  data.resize(kHeaderBytes + kBlockHeaderBytes + 17);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, BatchBlockCountPayloadDisagreementRejected) {
  // nrec says 9 records but the payload holds 10: the SoA decode must
  // refuse the block, not decode nine records and drop one.
  std::string data = SerializeV2(MakeSampleTrace(10));
  PatchU32(data, kHeaderBytes, 9);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, BatchZeroRecordTrailingBlockRejected) {
  // A forged zero-record block before the terminator (nrec=0, no payload,
  // nonzero crc) is not a valid terminator and not a valid block; the
  // batch reader must fail, never yield an empty block or stop early.
  std::string data = SerializeV2(MakeSampleTrace(10));
  std::string forged(kBlockHeaderBytes, '\0');
  PatchU32(forged, 8, 0xDEADBEEFu);
  data.insert(data.size() - (kBlockHeaderBytes + 8), forged);
  EXPECT_THROW(Drain(data), std::runtime_error);
}

TEST(StreamCorruptionTest, BatchPayloadBitFlipFailsCrc) {
  std::string data = SerializeV2(MakeSampleTrace(10));
  data[kHeaderBytes + kBlockHeaderBytes + 5] ^= 0x01;
  EXPECT_THROW(Drain(data), std::runtime_error);
}

// --- In-memory block source ---------------------------------------------------

TEST(BlockAdapterTest, BlockAndRecordViewsAgree) {
  const TraceBuffer original = MakeSampleTrace(100);
  // Buffer -> SoA blocks (ragged final block) -> rows: same records in
  // order.
  BufferBlockSource blocks(original, /*block_records=*/7);
  std::size_t i = 0;
  std::size_t block_count = 0;
  for (const auto* b = blocks.NextBlock(); b != nullptr;
       b = blocks.NextBlock()) {
    EXPECT_LE(b->size(), 7u);
    ++block_count;
    for (std::size_t row = 0; row < b->size(); ++row, ++i) {
      ASSERT_LT(i, original.size());
      EXPECT_EQ(b->Row(row), original[i]) << "record " << i;
    }
  }
  EXPECT_EQ(block_count, (100 + 6) / 7);
  EXPECT_EQ(i, original.size());
}

// --- Streaming suite equivalence ---------------------------------------------

std::string RenderedReport(analysis::AnalysisSuite& suite) {
  std::ostringstream out;
  suite.Render(out);
  return out.str();
}

TEST(StreamingSuiteTest, ReportByteIdenticalToInMemoryAtAnyThreadCount) {
  // The acceptance bar for the whole streaming refactor: disk-streamed and
  // in-memory analysis must render byte-identical reports, at 1 thread and
  // at 8.
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  const auto study = testutil::RunPaperStudy(0.01, config, 42);
  const auto& merged = study.trace;

  const std::string path = ::testing::TempDir() + "/atlas_suite_stream.v2";
  WriteV2File(merged, path);

  analysis::SuiteConfig suite_config;
  suite_config.trend.min_requests = 60;
  suite_config.trend.max_objects = 40;

  std::string golden;
  for (const int threads : {1, 8}) {
    suite_config.threads = threads;
    BufferBlockSource buffer(merged);
    analysis::AnalysisSuite in_memory(buffer, study.registry(), suite_config);
    TraceFileReader source(path);
    analysis::AnalysisSuite streamed(source, study.registry(), suite_config);
    const std::string mem_report = RenderedReport(in_memory);
    const std::string stream_report = RenderedReport(streamed);
    EXPECT_EQ(mem_report, stream_report) << "threads=" << threads;
    if (golden.empty()) golden = mem_report;
    EXPECT_EQ(mem_report, golden) << "threads=" << threads;
  }
  std::remove(path.c_str());
}

// --- Bounded memory -----------------------------------------------------------

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// ~73 MB on disk, more in RAM — a trace whose in-memory TraceBuffer would
// exceed the streaming budget by itself. Accumulator state scales with
// distinct users/objects, so the trace cycles a small population through
// many records.
constexpr std::uint64_t kBigTraceRecords = 1'500'000;
constexpr std::uint64_t kStreamBudgetBytes = 48ULL << 20;

void WriteBigSyntheticTrace(const std::string& path, std::uint32_t pub) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open());
  TraceWriter writer(out);
  util::Rng rng(5);
  const std::uint16_t num_uas = UaBank::Instance().size();
  LogRecord r;
  r.publisher_id = pub;
  r.response_code = 200;
  r.cache_status = CacheStatus::kHit;
  for (std::uint64_t i = 0; i < kBigTraceRecords; ++i) {
    r.timestamp_ms = static_cast<std::int64_t>(i / 4);
    r.url_hash = i % 10000;
    r.user_id = static_cast<std::uint32_t>(i % 1000);
    r.user_agent_id = static_cast<std::uint16_t>(i % num_uas);
    r.object_size = 1000 + rng.NextBounded(100000);
    r.response_bytes = r.object_size;
    r.file_type = static_cast<FileType>(i % kNumFileTypes);
    writer.Add(r);
  }
  writer.Finish();
}

TEST(StreamMemoryTest, BatchSuiteStreamsLargeTraceUnderBlockBudget) {
  // The SoA path holds one decoded RecordBlock at a time; it must not
  // re-buffer the trace (e.g. by accumulating blocks in the demultiplexer).
  if (UnderSanitizer()) {
    GTEST_SKIP() << "RSS not meaningful under sanitizer instrumentation";
  }
  PublisherRegistry registry;
  const std::uint32_t pub = registry.Register("T-1", SiteKind::kAdultVideo);

  const std::string path = ::testing::TempDir() + "/atlas_big_stream.v2";
  WriteBigSyntheticTrace(path, pub);

  if (!util::ResetPeakRss()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "peak-RSS reset unsupported on this kernel";
  }
  const std::uint64_t baseline = util::CurrentRssBytes();
  {
    analysis::SuiteConfig suite_config;
    suite_config.run_trend_clusters = false;
    suite_config.threads = 1;
    TraceFileReader source(path);
    analysis::AnalysisSuite suite(source, registry, suite_config);
    ASSERT_EQ(suite.sites().size(), 1u);
    EXPECT_EQ(suite.sites()[0].summary.records, kBigTraceRecords);
  }
  const std::uint64_t peak = util::PeakRssBytes();
  std::remove(path.c_str());

  ASSERT_GE(peak, baseline);
  EXPECT_LT(peak - baseline, kStreamBudgetBytes)
      << "streaming suite exceeded its memory budget (grew "
      << (peak - baseline) / (1 << 20) << " MB)";
}

// A sink that accepts `capacity` bytes, then fails every write — the
// full-disk failure mode. The v2 writer must surface this from Finish()
// (or an earlier block flush), never report success over a torn stream.
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

TEST(TraceWriterTest, ShortWriteSurfacesFromFinish) {
  const TraceBuffer trace = MakeSampleTrace(4096);
  FullDiskBuf buf(1024);  // header fits; the first block flush does not
  std::ostream out(&buf);
  TraceWriter writer(out);
  writer.Append(trace.records());
  EXPECT_THROW(writer.Finish(), std::runtime_error);
}

}  // namespace
}  // namespace atlas::trace
