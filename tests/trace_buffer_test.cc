#include "trace/trace_buffer.h"

#include <gtest/gtest.h>

#include "trace/content_class.h"

namespace atlas::trace {
namespace {

LogRecord Make(std::int64_t t, std::uint64_t url, std::uint64_t user,
               std::uint32_t pub = 0, FileType ft = FileType::kJpg,
               std::uint64_t bytes = 100) {
  LogRecord r;
  r.timestamp_ms = t;
  r.url_hash = url;
  r.user_id = user;
  r.publisher_id = pub;
  r.file_type = ft;
  r.response_bytes = bytes;
  r.object_size = bytes;
  return r;
}

TEST(TraceBufferTest, FilterByPublisher) {
  TraceBuffer buf;
  buf.Add(Make(1, 1, 1, 0));
  buf.Add(Make(2, 2, 1, 1));
  buf.Add(Make(3, 3, 1, 0));
  const auto filtered = buf.FilterByPublisher(0);
  EXPECT_EQ(filtered.size(), 2u);
  for (const auto& r : filtered.records()) EXPECT_EQ(r.publisher_id, 0u);
}

// The predicate `atlas-trace filter --class` applies.
TEST(TraceBufferTest, FilterByClass) {
  TraceBuffer buf;
  buf.Add(Make(1, 1, 1, 0, FileType::kMp4));
  buf.Add(Make(2, 2, 1, 0, FileType::kJpg));
  buf.Add(Make(3, 3, 1, 0, FileType::kCss));
  const auto of_class = [&](ContentClass c) {
    return buf.Filter(
        [c](const LogRecord& r) { return ClassOf(r.file_type) == c; });
  };
  EXPECT_EQ(of_class(ContentClass::kVideo).size(), 1u);
  EXPECT_EQ(of_class(ContentClass::kImage).size(), 1u);
  EXPECT_EQ(of_class(ContentClass::kOther).size(), 1u);
}

TEST(TraceBufferTest, EmptyBehaviour) {
  TraceBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_TRUE(buf.IsSortedByTime());
  EXPECT_TRUE(buf.FilterByPublisher(0).empty());
}

}  // namespace
}  // namespace atlas::trace
