#include "trace/publisher.h"

#include <stdexcept>

namespace atlas::trace {

const char* ToString(SiteKind kind) {
  switch (kind) {
    case SiteKind::kAdultVideo:
      return "adult-video";
    case SiteKind::kAdultImage:
      return "adult-image";
    case SiteKind::kAdultSocial:
      return "adult-social";
    case SiteKind::kNonAdult:
      return "non-adult";
  }
  return "?";
}

std::uint32_t PublisherRegistry::Register(const std::string& name,
                                          SiteKind kind) {
  if (FindByName(name).has_value()) {
    throw std::invalid_argument("PublisherRegistry: duplicate name: " + name);
  }
  const auto id = static_cast<std::uint32_t>(publishers_.size());
  publishers_.push_back(Publisher{id, name, kind});
  return id;
}

const Publisher& PublisherRegistry::Get(std::uint32_t id) const {
  if (id >= publishers_.size()) {
    throw std::out_of_range("PublisherRegistry: unknown id");
  }
  return publishers_[id];
}

std::optional<std::uint32_t> PublisherRegistry::FindByName(
    const std::string& name) const {
  for (const auto& p : publishers_) {
    if (p.name == name) return p.id;
  }
  return std::nullopt;
}

PublisherRegistry PublisherRegistry::PaperSites() {
  PublisherRegistry reg;
  reg.Register("V-1", SiteKind::kAdultVideo);
  reg.Register("V-2", SiteKind::kAdultVideo);
  reg.Register("P-1", SiteKind::kAdultImage);
  reg.Register("P-2", SiteKind::kAdultImage);
  reg.Register("S-1", SiteKind::kAdultSocial);
  reg.Register("N-1", SiteKind::kNonAdult);
  return reg;
}

}  // namespace atlas::trace
