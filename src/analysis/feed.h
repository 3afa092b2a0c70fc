// Feeding an in-memory TraceBuffer to an accumulator.
//
// Accumulators have one entry, AddBatch over a RecordBlock — the unit the
// streaming suite demultiplexes. The in-memory Compute* helpers reach it
// through these two functions instead of keeping a per-record entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::analysis {

// Feeds every row of `trace` in buffer order, one default-sized block at a
// time.
template <typename Accumulator>
void FeedTrace(const trace::TraceBuffer& trace, Accumulator& acc) {
  trace::BufferBlockSource source(trace);
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    acc.AddBatch(*block, nullptr, block->size());
  }
}

// For accumulators that require non-decreasing timestamps. A sorted buffer
// is fed as FeedTrace feeds it; an unsorted one becomes a single block
// whose rows go to AddBatch in stable time order.
template <typename Accumulator>
void FeedTraceByTime(const trace::TraceBuffer& trace, Accumulator& acc) {
  if (trace.IsSortedByTime()) {
    FeedTrace(trace, acc);
    return;
  }
  std::vector<std::uint32_t> order(trace.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return trace[a].timestamp_ms < trace[b].timestamp_ms;
                   });
  trace::RecordBlock block;
  block.Append(trace.records());
  acc.AddBatch(block, order.data(), order.size());
}

}  // namespace atlas::analysis
