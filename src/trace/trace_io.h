// Trace CSV import/export. The binary trace format (v2: framed,
// CRC-checked blocks) and its reader/writer live in stream.h.
#pragma once

#include <iosfwd>

#include "trace/trace_buffer.h"

namespace atlas::trace {

// CSV with a header row; enums are written as their textual names so the
// files are directly consumable by pandas and friends. WriteCsv throws
// std::runtime_error if the stream fails (e.g. disk full at flush).
void WriteCsv(const TraceBuffer& trace, std::ostream& out);
TraceBuffer ReadCsv(std::istream& in);

}  // namespace atlas::trace
