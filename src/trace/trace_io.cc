#include "trace/trace_io.h"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "trace/content_class.h"
#include "util/csv.h"
#include "util/str.h"

namespace atlas::trace {
namespace {

// Parses a CSV field into a narrow record column, rejecting out-of-range
// values instead of silently wrapping (a publisher_id of 2^32 + 1 must not
// be attributed to publisher 1).
template <typename T>
T ParseNarrowField(const std::string& field, const char* name) {
  const std::uint64_t value = util::ParseUint64(field);
  if (value > std::numeric_limits<T>::max()) {
    throw std::runtime_error("trace_io: " + std::string(name) +
                             " out of range: " + field);
  }
  return static_cast<T>(value);
}

}  // namespace

std::uint64_t WriteCsv(BlockSource& source, std::ostream& out) {
  util::CsvWriter writer(out);
  writer.Row({"timestamp_ms", "url_hash", "user_id", "object_size",
              "response_bytes", "publisher_id", "user_agent_id",
              "response_code", "file_type", "content_class", "cache_status",
              "tz_offset_quarter_hours"});
  std::uint64_t written = 0;
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    for (std::size_t i = 0; i < block->size(); ++i) {
      const LogRecord r = block->Row(i);
      writer.Field(r.timestamp_ms)
          .Field(r.url_hash)
          .Field(r.user_id)
          .Field(r.object_size)
          .Field(r.response_bytes)
          .Field(static_cast<std::uint64_t>(r.publisher_id))
          .Field(static_cast<std::uint64_t>(r.user_agent_id))
          .Field(static_cast<std::uint64_t>(r.response_code))
          .Field(ToString(r.file_type))
          .Field(ToString(ClassOf(r.file_type)))
          .Field(ToString(r.cache_status))
          .Field(static_cast<std::int64_t>(r.tz_offset_quarter_hours));
      writer.EndRow();
    }
    written += block->size();
  }
  // CSV export used to return silently on a failed stream; surface it like
  // the binary writers do.
  out.flush();
  if (!out) throw std::runtime_error("trace_io: write failed (csv)");
  return written;
}

TraceBuffer ReadCsv(std::istream& in) {
  TraceBuffer trace;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    const auto fields = util::ParseCsvLine(line);
    if (fields.size() != 12) {
      throw std::runtime_error("trace_io: bad CSV field count");
    }
    LogRecord r;
    r.timestamp_ms = util::ParseInt64(fields[0]);
    if (r.timestamp_ms < 0) {
      throw std::runtime_error("trace_io: negative timestamp_ms");
    }
    r.url_hash = util::ParseUint64(fields[1]);
    r.user_id = util::ParseUint64(fields[2]);
    r.object_size = util::ParseUint64(fields[3]);
    r.response_bytes = util::ParseUint64(fields[4]);
    r.publisher_id = ParseNarrowField<std::uint32_t>(fields[5], "publisher_id");
    r.user_agent_id =
        ParseNarrowField<std::uint16_t>(fields[6], "user_agent_id");
    r.response_code =
        ParseNarrowField<std::uint16_t>(fields[7], "response_code");
    r.file_type = FileTypeFromString(fields[8]);
    // fields[9] (content_class) is derived; validated but not stored.
    if (ContentClassFromString(fields[9]) != ClassOf(r.file_type)) {
      throw std::runtime_error("trace_io: content_class/file_type mismatch");
    }
    r.cache_status = CacheStatusFromString(fields[10]);
    const std::int64_t tz = util::ParseInt64(fields[11]);
    if (tz < std::numeric_limits<std::int8_t>::min() ||
        tz > std::numeric_limits<std::int8_t>::max()) {
      throw std::runtime_error(
          "trace_io: tz_offset_quarter_hours out of range: " + fields[11]);
    }
    r.tz_offset_quarter_hours = static_cast<std::int8_t>(tz);
    trace.Add(r);
  }
  return trace;
}

}  // namespace atlas::trace
