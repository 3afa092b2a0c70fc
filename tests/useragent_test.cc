#include "trace/useragent.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace atlas::trace {
namespace {

TEST(ParseUserAgentTest, DesktopWindowsChrome) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
      "like Gecko) Chrome/46.0.2490.86 Safari/537.36");
  EXPECT_EQ(info.device, DeviceType::kDesktop);
  EXPECT_EQ(info.os, OsFamily::kWindows);
  EXPECT_EQ(info.browser, BrowserFamily::kChrome);  // not Safari!
  EXPECT_FALSE(info.is_bot);
}

TEST(ParseUserAgentTest, MacSafari) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11_1) AppleWebKit/601.2.7 "
      "(KHTML, like Gecko) Version/9.0.1 Safari/601.2.7");
  EXPECT_EQ(info.device, DeviceType::kDesktop);
  EXPECT_EQ(info.os, OsFamily::kMacOs);
  EXPECT_EQ(info.browser, BrowserFamily::kSafari);
}

TEST(ParseUserAgentTest, AndroidPhone) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) "
      "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.76 Mobile "
      "Safari/537.36");
  EXPECT_EQ(info.device, DeviceType::kAndroid);
  EXPECT_EQ(info.os, OsFamily::kAndroidOs);
  EXPECT_EQ(info.browser, BrowserFamily::kChrome);
}

TEST(ParseUserAgentTest, AndroidTabletIsMisc) {
  // No "Mobile" token -> tablet -> Misc bucket per the paper's taxonomy.
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Linux; Android 5.0.2; SM-T530 Build/LRX22G) "
      "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.76 "
      "Safari/537.36");
  EXPECT_EQ(info.device, DeviceType::kMisc);
  EXPECT_EQ(info.os, OsFamily::kAndroidOs);
}

TEST(ParseUserAgentTest, IphoneSafari) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (iPhone; CPU iPhone OS 9_1 like Mac OS X) "
      "AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13B143 "
      "Safari/601.1");
  EXPECT_EQ(info.device, DeviceType::kIos);
  EXPECT_EQ(info.os, OsFamily::kIosOs);  // not macOS despite "like Mac OS X"
  EXPECT_EQ(info.browser, BrowserFamily::kSafari);
}

TEST(ParseUserAgentTest, ChromeOnIosIsChrome) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (iPhone; CPU iPhone OS 8_4 like Mac OS X) "
      "AppleWebKit/600.1.4 (KHTML, like Gecko) CriOS/45.0.2454.89 "
      "Mobile/12H143 Safari/600.1.4");
  EXPECT_EQ(info.device, DeviceType::kIos);
  EXPECT_EQ(info.browser, BrowserFamily::kChrome);
}

TEST(ParseUserAgentTest, IpadIsMisc) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (iPad; CPU OS 9_1 like Mac OS X) AppleWebKit/601.1.46 "
      "(KHTML, like Gecko) Version/9.0 Mobile/13B143 Safari/601.1");
  EXPECT_EQ(info.device, DeviceType::kMisc);
  EXPECT_EQ(info.os, OsFamily::kIosOs);
}

TEST(ParseUserAgentTest, EdgeBeforeChrome) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
      "like Gecko) Chrome/46.0.2486.0 Safari/537.36 Edge/13.10586");
  EXPECT_EQ(info.browser, BrowserFamily::kEdge);
}

TEST(ParseUserAgentTest, OperaBeforeChrome) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like "
      "Gecko) Chrome/45.0.2454.85 Safari/537.36 OPR/32.0.1948.69");
  EXPECT_EQ(info.browser, BrowserFamily::kOpera);
}

TEST(ParseUserAgentTest, InternetExplorer) {
  EXPECT_EQ(ParseUserAgent("Mozilla/5.0 (Windows NT 6.1; Trident/7.0; "
                           "rv:11.0) like Gecko")
                .browser,
            BrowserFamily::kIe);
  EXPECT_EQ(ParseUserAgent("Mozilla/5.0 (compatible; MSIE 10.0; Windows NT "
                           "6.2; WOW64; Trident/6.0)")
                .browser,
            BrowserFamily::kIe);
}

TEST(ParseUserAgentTest, Firefox) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:41.0) Gecko/20100101 "
      "Firefox/41.0");
  EXPECT_EQ(info.browser, BrowserFamily::kFirefox);
  EXPECT_EQ(info.os, OsFamily::kLinux);
  EXPECT_EQ(info.device, DeviceType::kDesktop);
}

TEST(ParseUserAgentTest, WindowsPhoneIsMisc) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (Windows Phone 10.0; Android 4.2.1; Microsoft; Lumia 950) "
      "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2486.0 Mobile "
      "Safari/537.36 Edge/13.10586");
  EXPECT_EQ(info.device, DeviceType::kMisc);
}

TEST(ParseUserAgentTest, BotsFlagged) {
  const auto info = ParseUserAgent(
      "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)");
  EXPECT_TRUE(info.is_bot);
  EXPECT_EQ(info.device, DeviceType::kMisc);
}

TEST(ParseUserAgentTest, EmptyString) {
  const auto info = ParseUserAgent("");
  EXPECT_EQ(info.device, DeviceType::kDesktop);
  EXPECT_EQ(info.os, OsFamily::kOtherOs);
  EXPECT_EQ(info.browser, BrowserFamily::kOtherBrowser);
}

TEST(UaBankTest, EveryEntryParsesConsistently) {
  // Every non-bot entry is listed under the device its string parses to.
  const auto& bank = UaBank::Instance();
  ASSERT_GT(bank.size(), 0);
  for (std::uint16_t i = 0; i < bank.size(); ++i) {
    const UaInfo info = ParseUserAgent(bank.String(i));
    if (info.is_bot) continue;
    const auto ids = bank.IdsForDevice(info.device);
    EXPECT_NE(std::find(ids.begin(), ids.end(), i), ids.end())
        << bank.String(i);
  }
}

TEST(UaBankTest, CoversEveryDeviceType) {
  const auto& bank = UaBank::Instance();
  for (int d = 0; d < kNumDeviceTypes; ++d) {
    const auto ids = bank.IdsForDevice(static_cast<DeviceType>(d));
    EXPECT_FALSE(ids.empty()) << ToString(static_cast<DeviceType>(d));
    for (const auto id : ids) {
      EXPECT_EQ(ParseUserAgent(bank.String(id)).device,
                static_cast<DeviceType>(d));
    }
  }
}

}  // namespace
}  // namespace atlas::trace
