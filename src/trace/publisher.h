// Publisher (website) registry.
//
// The paper separates adult from non-adult publishers "through an extensive
// manual analysis of publisher identifiers" and then studies five anonymized
// adult sites: V-1, V-2 (YouTube-style video), P-1, P-2 (image-heavy), and
// S-1 (adult social networking). The registry assigns stable ids and carries
// the per-site classification the analyses group by.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace atlas::trace {

enum class SiteKind : std::uint8_t {
  kAdultVideo = 0,     // V-1, V-2
  kAdultImage = 1,     // P-1, P-2
  kAdultSocial = 2,    // S-1
  kNonAdult = 3,       // control / background traffic
};

const char* ToString(SiteKind kind);

struct Publisher {
  std::uint32_t id = 0;
  std::string name;  // anonymized label, e.g. "V-1"
  SiteKind kind = SiteKind::kNonAdult;

};

class PublisherRegistry {
 public:
  PublisherRegistry() = default;

  // Registers a publisher; names must be unique. Returns the assigned id.
  std::uint32_t Register(const std::string& name, SiteKind kind);

  const Publisher& Get(std::uint32_t id) const;
  std::optional<std::uint32_t> FindByName(const std::string& name) const;

  const std::vector<Publisher>& all() const { return publishers_; }

  // The paper's five-site study population: V-1, V-2, P-1, P-2, S-1 (in that
  // order), plus one non-adult control publisher "N-1".
  static PublisherRegistry PaperSites();

 private:
  std::vector<Publisher> publishers_;
};

}  // namespace atlas::trace
