// Trace CSV import/export. The binary trace format (v2: framed,
// CRC-checked blocks) and its reader/writer live in stream.h.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::trace {

// CSV with a header row; enums are written as their textual names so the
// files are directly consumable by pandas and friends. WriteCsv drains
// `source` one block at a time, so a trace file converts in bounded
// memory, and returns the number of records written; it throws
// std::runtime_error if the stream fails (e.g. disk full at flush).
std::uint64_t WriteCsv(BlockSource& source, std::ostream& out);
TraceBuffer ReadCsv(std::istream& in);

}  // namespace atlas::trace
