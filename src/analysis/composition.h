// Content & traffic composition (Figs. 1, 2a, 2b and the §III summary).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

// Per-content-class breakdown of one site's catalog and traffic.
struct CompositionResult {
  std::string site;
  // Fig. 1: distinct objects per class (an object's class comes from its
  // file type; objects appear once no matter how often requested).
  std::array<std::uint64_t, trace::kNumContentClasses> objects{};
  // Fig. 2(a): request count per class.
  std::array<std::uint64_t, trace::kNumContentClasses> requests{};
  // Fig. 2(b): delivered bytes per class.
  std::array<std::uint64_t, trace::kNumContentClasses> bytes{};

  std::uint64_t TotalObjects() const;
  std::uint64_t TotalRequests() const;
  std::uint64_t TotalBytes() const;
  double ObjectShare(trace::ContentClass c) const;
  double RequestShare(trace::ContentClass c) const;
  double ByteShare(trace::ContentClass c) const;
};

// Single-pass accumulator behind ComputeComposition; feed records in any
// order, then Finalize exactly once. State is O(distinct objects), so a
// week-long trace streams through without materializing.
class CompositionAccumulator {
 public:
  explicit CompositionAccumulator(std::size_t size_hint = 0);
  // The one entry of every accumulator: rows `rows[0..n)` of `b` (all of
  // [0, n) when rows is null), in that order, folded one row at a time so
  // floating-point sums never depend on how the stream was cut into blocks.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  CompositionResult Finalize(const std::string& site_name);

  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  CompositionResult result_;
  util::FlatHashMap<std::uint64_t, trace::ContentClass> seen_;
};

// Computes composition for a (single-site) trace.
CompositionResult ComputeComposition(const trace::TraceBuffer& site_trace,
                                     const std::string& site_name);

// §III dataset summary: records, users, objects, bytes, duration.
struct DatasetSummary {
  std::string label;
  std::uint64_t records = 0;
  std::uint64_t users = 0;
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
};

// Streaming counterpart of ComputeDatasetSummary; O(users + objects) state.
class DatasetSummaryAccumulator {
 public:
  explicit DatasetSummaryAccumulator(std::size_t size_hint = 0);
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  DatasetSummary Finalize(const std::string& label);

  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::int64_t start_ms_ = 0;
  std::int64_t end_ms_ = 0;
  util::FlatHashSet<std::uint64_t> users_;
  util::FlatHashSet<std::uint64_t> objects_;
};

DatasetSummary ComputeDatasetSummary(const trace::TraceBuffer& trace,
                                     const std::string& label);

}  // namespace atlas::analysis
