#include "analysis/composition.h"

#include <algorithm>
#include <vector>

#include "analysis/feed.h"
#include "trace/content_class.h"
#include "util/sorted.h"

namespace atlas::analysis {

std::uint64_t CompositionResult::TotalObjects() const {
  std::uint64_t t = 0;
  for (auto v : objects) t += v;
  return t;
}

std::uint64_t CompositionResult::TotalRequests() const {
  std::uint64_t t = 0;
  for (auto v : requests) t += v;
  return t;
}

std::uint64_t CompositionResult::TotalBytes() const {
  std::uint64_t t = 0;
  for (auto v : bytes) t += v;
  return t;
}

double CompositionResult::ObjectShare(trace::ContentClass c) const {
  const auto total = TotalObjects();
  return total == 0
             ? 0.0
             : static_cast<double>(objects[static_cast<std::size_t>(c)]) /
                   static_cast<double>(total);
}

double CompositionResult::RequestShare(trace::ContentClass c) const {
  const auto total = TotalRequests();
  return total == 0
             ? 0.0
             : static_cast<double>(requests[static_cast<std::size_t>(c)]) /
                   static_cast<double>(total);
}

double CompositionResult::ByteShare(trace::ContentClass c) const {
  const auto total = TotalBytes();
  return total == 0 ? 0.0
                    : static_cast<double>(bytes[static_cast<std::size_t>(c)]) /
                          static_cast<double>(total);
}

CompositionAccumulator::CompositionAccumulator(std::size_t size_hint) {
  seen_.reserve(size_hint / 4 + 1);
}

void CompositionAccumulator::AddBatch(const trace::RecordBlock& b,
                                      const std::uint32_t* rows,
                                      std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const auto cls = trace::ClassOf(b.file_type[i]);
    const auto c = static_cast<std::size_t>(cls);
    ++result_.requests[c];
    result_.bytes[c] += b.response_bytes[i];
    seen_.InsertIfAbsent(b.url_hash[i], cls);
  }
}

CompositionResult CompositionAccumulator::Finalize(
    const std::string& site_name) {
  result_.site = site_name;
  // Per-class object tallies commute, so layout order is fine here.
  seen_.ForEach([&](std::uint64_t, trace::ContentClass cls) {
    ++result_.objects[static_cast<std::size_t>(cls)];
  });
  return std::move(result_);
}

CompositionResult ComputeComposition(const trace::TraceBuffer& site_trace,
                                     const std::string& site_name) {
  CompositionAccumulator acc(site_trace.size());
  FeedTrace(site_trace, acc);
  return acc.Finalize(site_name);
}

DatasetSummaryAccumulator::DatasetSummaryAccumulator(std::size_t size_hint) {
  users_.reserve(size_hint / 4 + 1);
  objects_.reserve(size_hint / 4 + 1);
}

void DatasetSummaryAccumulator::AddBatch(const trace::RecordBlock& b,
                                         const std::uint32_t* rows,
                                         std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::int64_t ts = b.timestamp_ms[i];
    if (records_ == 0) {
      start_ms_ = ts;
      end_ms_ = ts;
    } else {
      start_ms_ = std::min(start_ms_, ts);
      end_ms_ = std::max(end_ms_, ts);
    }
    ++records_;
    bytes_ += b.response_bytes[i];
    users_.Insert(b.user_id[i]);
    objects_.Insert(b.url_hash[i]);
  }
}

DatasetSummary DatasetSummaryAccumulator::Finalize(const std::string& label) {
  DatasetSummary s;
  s.label = label;
  s.records = records_;
  s.users = users_.size();
  s.objects = objects_.size();
  s.bytes = bytes_;
  s.start_ms = start_ms_;
  s.end_ms = end_ms_;
  return s;
}

DatasetSummary ComputeDatasetSummary(const trace::TraceBuffer& trace,
                                     const std::string& label) {
  DatasetSummaryAccumulator acc(trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(label);
}

namespace {

constexpr std::uint32_t kCompositionStateVersion = 1;
constexpr std::uint32_t kDatasetSummaryStateVersion = 1;

}  // namespace

void CompositionAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kCompositionStateVersion);
  for (std::size_t c = 0; c < trace::kNumContentClasses; ++c) {
    w.WriteU64(result_.objects[c]);
    w.WriteU64(result_.requests[c]);
    w.WriteU64(result_.bytes[c]);
  }
  w.WriteU64(seen_.size());
  for (const std::uint64_t hash : seen_.SortedKeys()) {
    w.WriteU64(hash);
    w.WriteU8(static_cast<std::uint8_t>(seen_.At(hash)));
  }
}

void CompositionAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("composition accumulator", kCompositionStateVersion);
  for (std::size_t c = 0; c < trace::kNumContentClasses; ++c) {
    result_.objects[c] = r.ReadU64();
    result_.requests[c] = r.ReadU64();
    result_.bytes[c] = r.ReadU64();
  }
  seen_.clear();
  const std::uint64_t n = r.ReadU64();
  seen_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t hash = r.ReadU64();
    seen_[hash] = static_cast<trace::ContentClass>(r.ReadU8());
  }
}

void DatasetSummaryAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kDatasetSummaryStateVersion);
  w.WriteU64(records_);
  w.WriteU64(bytes_);
  w.WriteI64(start_ms_);
  w.WriteI64(end_ms_);
  w.WriteVecU64(users_.SortedElements());
  w.WriteVecU64(objects_.SortedElements());
}

void DatasetSummaryAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("dataset summary accumulator", kDatasetSummaryStateVersion);
  records_ = r.ReadU64();
  bytes_ = r.ReadU64();
  start_ms_ = r.ReadI64();
  end_ms_ = r.ReadI64();
  users_.clear();
  for (const std::uint64_t u : r.ReadVecU64()) users_.Insert(u);
  objects_.clear();
  for (const std::uint64_t o : r.ReadVecU64()) objects_.Insert(o);
}

}  // namespace atlas::analysis
