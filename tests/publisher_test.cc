#include "trace/publisher.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace atlas::trace {
namespace {

TEST(PublisherRegistryTest, RegisterAssignsSequentialIds) {
  PublisherRegistry reg;
  EXPECT_EQ(reg.Register("A", SiteKind::kAdultVideo), 0u);
  EXPECT_EQ(reg.Register("B", SiteKind::kNonAdult), 1u);
  EXPECT_EQ(reg.all().size(), 2u);
  EXPECT_EQ(reg.Get(0).name, "A");
  EXPECT_EQ(reg.Get(0).kind, SiteKind::kAdultVideo);
  EXPECT_EQ(reg.Get(1).kind, SiteKind::kNonAdult);
}

TEST(PublisherRegistryTest, DuplicateNameThrows) {
  PublisherRegistry reg;
  reg.Register("A", SiteKind::kAdultVideo);
  EXPECT_THROW(reg.Register("A", SiteKind::kAdultImage),
               std::invalid_argument);
}

TEST(PublisherRegistryTest, UnknownIdThrows) {
  PublisherRegistry reg;
  EXPECT_THROW(reg.Get(0), std::out_of_range);
}

TEST(PublisherRegistryTest, FindByName) {
  PublisherRegistry reg;
  reg.Register("V-1", SiteKind::kAdultVideo);
  EXPECT_EQ(reg.FindByName("V-1").value(), 0u);
  EXPECT_FALSE(reg.FindByName("missing").has_value());
}

TEST(PublisherRegistryTest, PaperSites) {
  const auto reg = PublisherRegistry::PaperSites();
  EXPECT_EQ(reg.all().size(), 6u);
  EXPECT_EQ(reg.Get(*reg.FindByName("V-1")).kind, SiteKind::kAdultVideo);
  EXPECT_EQ(reg.Get(*reg.FindByName("V-2")).kind, SiteKind::kAdultVideo);
  EXPECT_EQ(reg.Get(*reg.FindByName("P-1")).kind, SiteKind::kAdultImage);
  EXPECT_EQ(reg.Get(*reg.FindByName("P-2")).kind, SiteKind::kAdultImage);
  EXPECT_EQ(reg.Get(*reg.FindByName("S-1")).kind, SiteKind::kAdultSocial);
  EXPECT_EQ(reg.Get(*reg.FindByName("N-1")).kind, SiteKind::kNonAdult);
  EXPECT_EQ(std::count_if(reg.all().begin(), reg.all().end(),
                          [](const Publisher& p) {
                            return p.kind != SiteKind::kNonAdult;
                          }),
            5);
}

TEST(SiteKindTest, Strings) {
  EXPECT_STREQ(ToString(SiteKind::kAdultVideo), "adult-video");
  EXPECT_STREQ(ToString(SiteKind::kNonAdult), "non-adult");
}

}  // namespace
}  // namespace atlas::trace
