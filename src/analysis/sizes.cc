#include "analysis/sizes.h"

#include "analysis/feed.h"
#include "stats/histogram.h"
#include "trace/content_class.h"

namespace atlas::analysis {

double SizeDistributions::VideoAboveMb() const {
  if (video.empty()) return 0.0;
  return 1.0 - video.Evaluate(1e6);
}

double SizeDistributions::ImageBelowMb() const {
  if (image.empty()) return 0.0;
  return image.Evaluate(1e6);
}

SizeDistributionsAccumulator::SizeDistributionsAccumulator(
    std::size_t size_hint) {
  firsts_.reserve(size_hint / 4 + 1);
}

void SizeDistributionsAccumulator::AddBatch(const trace::RecordBlock& b,
                                            const std::uint32_t* rows,
                                            std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    firsts_.InsertIfAbsent(b.url_hash[i],
                           FirstSeen{b.object_size[i], b.file_type[i]});
  }
}

SizeDistributions SizeDistributionsAccumulator::Finalize(
    const std::string& site_name) {
  SizeDistributions result;
  result.site = site_name;
  // The Ecdfs sort on Finalize, so table layout order is fine here.
  firsts_.ForEach([&](std::uint64_t, const FirstSeen& first) {
    const double size = static_cast<double>(first.object_size);
    switch (trace::ClassOf(first.file_type)) {
      case trace::ContentClass::kVideo:
        result.video.Add(size);
        break;
      case trace::ContentClass::kImage:
        result.image.Add(size);
        break;
      case trace::ContentClass::kOther:
        result.other.Add(size);
        break;
    }
  });
  result.video.Finalize();
  result.image.Finalize();
  result.other.Finalize();
  return result;
}

SizeDistributions ComputeSizeDistributions(const trace::TraceBuffer& trace,
                                           const std::string& site_name) {
  SizeDistributionsAccumulator acc(trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(site_name);
}

namespace {
constexpr std::uint32_t kFirstSeenStateVersion = 1;
}  // namespace

void SizeDistributionsAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kFirstSeenStateVersion);
  w.WriteU64(firsts_.size());
  for (const std::uint64_t hash : firsts_.SortedKeys()) {
    const FirstSeen& f = firsts_.At(hash);
    w.WriteU64(hash);
    w.WriteU64(f.object_size);
    w.WriteU8(static_cast<std::uint8_t>(f.file_type));
  }
}

void SizeDistributionsAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("size distributions accumulator",
                  kFirstSeenStateVersion);
  firsts_.clear();
  const std::uint64_t n = r.ReadU64();
  firsts_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t hash = r.ReadU64();
    FirstSeen f;
    f.object_size = r.ReadU64();
    f.file_type = static_cast<trace::FileType>(r.ReadU8());
    firsts_[hash] = f;
  }
}

bool ImageSizesAreBimodal(const stats::Ecdf& image_sizes) {
  if (image_sizes.count() < 20) return false;
  stats::LogHistogram hist(100.0, 1e8, 4);
  for (double s : image_sizes.sorted_samples()) hist.Add(s);
  const auto modes = hist.Modes(0.04);
  if (modes.size() < 2) return false;
  // Require the outer modes to be at least a decade apart (thumbnail vs.
  // full-resolution populations).
  return modes.back() / modes.front() >= 10.0;
}

}  // namespace atlas::analysis
