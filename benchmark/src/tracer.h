// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from outside the library, around calls into each
// layer's public functions and between the engine's hook callbacks. They are
// kept in memory and written once, at exit, as Chrome trace-event JSON
// (viewable at https://ui.perfetto.dev). All recording happens on the
// thread that drives the pipeline: the engine calls its sink, epoch observer
// and after_save hook from its coordinating thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace atlas::bench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;  // "<layer>.<stage>", e.g. "cdn.epoch"
  Clock::time_point start;
  Clock::time_point end;
  // Index of the span that caused this one; -1 for a top-level span. Top-level
  // spans tile the traced rep and are what bench.span_coverage sums.
  int parent = -1;
};

class Tracer {
 public:
  // Records a span and returns its index (usable as a child's parent).
  int Add(std::string_view name, Clock::time_point start, Clock::time_point end,
          int parent = -1);
  // Starts a span that Close() ends; for spans whose name and end are only
  // known at the next hook callback.
  int Open(std::string_view name, Clock::time_point start) {
    return Add(name, start, start);
  }
  // Ends span `id` at `end`, renaming it when `name` is not empty.
  void Close(int id, Clock::time_point end, std::string_view name = {});

  const std::vector<Span>& spans() const { return spans_; }

  // Durations in seconds of every span called `name`, in record order.
  std::vector<double> Durations(std::string_view name) const;
  // Sum of Durations(name).
  double Total(std::string_view name) const;
  // Sum of all top-level span durations.
  double TopLevelTotal() const;

  // Appends this tracer's spans as complete ("X") trace events on the lane
  // `tid` named `lane`, with timestamps relative to `origin`. `first` tracks
  // whether a separating comma is needed across calls.
  void WriteChromeEvents(std::ostream& out, Clock::time_point origin, int tid,
                         const std::string& lane, bool& first) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace atlas::bench
