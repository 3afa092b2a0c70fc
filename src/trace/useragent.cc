#include "trace/useragent.h"

#include <stdexcept>

#include "util/str.h"

namespace atlas::trace {

using util::ContainsIgnoreCase;

UaInfo ParseUserAgent(std::string_view ua) {
  UaInfo info;

  // Bots first; they would otherwise classify as desktop Linux.
  if (ContainsIgnoreCase(ua, "bot") || ContainsIgnoreCase(ua, "crawler") ||
      ContainsIgnoreCase(ua, "spider")) {
    info.is_bot = true;
    info.device = DeviceType::kMisc;
    info.os = OsFamily::kOtherOs;
    info.browser = BrowserFamily::kOtherBrowser;
    return info;
  }

  // --- Operating system -----------------------------------------------
  // iOS devices carry "iPhone"/"iPad"/"iPod"; they must be checked before
  // "Mac OS X", which also appears in iOS UAs ("...like Mac OS X...").
  const bool iphone = ContainsIgnoreCase(ua, "iPhone");
  const bool ipad = ContainsIgnoreCase(ua, "iPad");
  const bool ipod = ContainsIgnoreCase(ua, "iPod");
  const bool android = ContainsIgnoreCase(ua, "Android");
  if (iphone || ipad || ipod) {
    info.os = OsFamily::kIosOs;
  } else if (android) {
    info.os = OsFamily::kAndroidOs;
  } else if (ContainsIgnoreCase(ua, "Windows")) {
    info.os = OsFamily::kWindows;
  } else if (ContainsIgnoreCase(ua, "Mac OS X") ||
             ContainsIgnoreCase(ua, "Macintosh")) {
    info.os = OsFamily::kMacOs;
  } else if (ContainsIgnoreCase(ua, "Linux") ||
             ContainsIgnoreCase(ua, "X11") ||
             ContainsIgnoreCase(ua, "CrOS")) {
    info.os = OsFamily::kLinux;
  }

  // --- Device type ------------------------------------------------------
  // Paper buckets: Desktop, Android (phones), iOS (phones), Misc (tablets
  // and other mobile devices). Android tablets lack "Mobile" in their UA.
  // Windows Phone UAs carry a compatibility "Android" token, so they must
  // be classified before the Android branch.
  if (ContainsIgnoreCase(ua, "Windows Phone")) {
    info.device = DeviceType::kMisc;
    info.os = OsFamily::kWindows;
  } else if (iphone || ipod) {
    info.device = DeviceType::kIos;
  } else if (ipad) {
    info.device = DeviceType::kMisc;  // tablet
  } else if (android) {
    info.device = ContainsIgnoreCase(ua, "Mobile") ? DeviceType::kAndroid
                                                   : DeviceType::kMisc;
  } else if (ContainsIgnoreCase(ua, "Windows Phone") ||
             ContainsIgnoreCase(ua, "BlackBerry") ||
             ContainsIgnoreCase(ua, "Opera Mini") ||
             ContainsIgnoreCase(ua, "Kindle") ||
             ContainsIgnoreCase(ua, "Silk") ||
             ContainsIgnoreCase(ua, "PlayStation") ||
             ContainsIgnoreCase(ua, "Nintendo") ||
             ContainsIgnoreCase(ua, "SmartTV") ||
             ContainsIgnoreCase(ua, "Mobile")) {
    info.device = DeviceType::kMisc;
  } else {
    info.device = DeviceType::kDesktop;
  }

  // --- Browser ------------------------------------------------------------
  // Precedence: Edge before Chrome (Edge UAs contain "Chrome"), Opera (OPR)
  // before Chrome, Chrome before Safari (Chrome UAs contain "Safari"),
  // CriOS/FxiOS are Chrome/Firefox on iOS.
  if (ContainsIgnoreCase(ua, "Edge/") || ContainsIgnoreCase(ua, "Edg/")) {
    info.browser = BrowserFamily::kEdge;
  } else if (ContainsIgnoreCase(ua, "OPR/") ||
             ContainsIgnoreCase(ua, "Opera")) {
    info.browser = BrowserFamily::kOpera;
  } else if (ContainsIgnoreCase(ua, "CriOS") ||
             ContainsIgnoreCase(ua, "Chrome/")) {
    info.browser = BrowserFamily::kChrome;
  } else if (ContainsIgnoreCase(ua, "FxiOS") ||
             ContainsIgnoreCase(ua, "Firefox/")) {
    info.browser = BrowserFamily::kFirefox;
  } else if (ContainsIgnoreCase(ua, "MSIE") ||
             ContainsIgnoreCase(ua, "Trident/")) {
    info.browser = BrowserFamily::kIe;
  } else if (ContainsIgnoreCase(ua, "Safari/")) {
    info.browser = BrowserFamily::kSafari;
  }

  return info;
}

namespace {

struct BankEntry {
  const char* ua;
};

// Realistic 2015-era UA strings, matching the paper's measurement window.
const BankEntry kBank[] = {
    // Desktop Windows / Chrome, Firefox, IE, Edge, Opera
    {"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
     "like Gecko) Chrome/46.0.2490.86 Safari/537.36"},
    {"Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like "
     "Gecko) Chrome/45.0.2454.101 Safari/537.36"},
    {"Mozilla/5.0 (Windows NT 6.3; WOW64; rv:41.0) Gecko/20100101 "
     "Firefox/41.0"},
    {"Mozilla/5.0 (Windows NT 6.1; rv:40.0) Gecko/20100101 Firefox/40.0"},
    {"Mozilla/5.0 (Windows NT 6.1; Trident/7.0; rv:11.0) like Gecko"},
    {"Mozilla/5.0 (compatible; MSIE 10.0; Windows NT 6.2; WOW64; "
     "Trident/6.0)"},
    {"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
     "like Gecko) Chrome/46.0.2486.0 Safari/537.36 Edge/13.10586"},
    {"Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like "
     "Gecko) Chrome/45.0.2454.85 Safari/537.36 OPR/32.0.1948.69"},
    // Desktop macOS
    {"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11_1) AppleWebKit/601.2.7 "
     "(KHTML, like Gecko) Version/9.0.1 Safari/601.2.7"},
    {"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10_5) AppleWebKit/537.36 "
     "(KHTML, like Gecko) Chrome/46.0.2490.80 Safari/537.36"},
    {"Mozilla/5.0 (Macintosh; Intel Mac OS X 10.11; rv:42.0) Gecko/20100101 "
     "Firefox/42.0"},
    // Desktop Linux
    {"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
     "Chrome/45.0.2454.101 Safari/537.36"},
    {"Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:41.0) Gecko/20100101 "
     "Firefox/41.0"},
    // Android phones
    {"Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) "
     "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.76 Mobile "
     "Safari/537.36"},
    {"Mozilla/5.0 (Linux; Android 5.0; Nexus 5 Build/LRX21O) "
     "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Mobile "
     "Safari/537.36"},
    {"Mozilla/5.0 (Linux; U; Android 4.4.2; en-us; GT-I9505 Build/KOT49H) "
     "AppleWebKit/534.30 (KHTML, like Gecko) Version/4.0 Mobile "
     "Safari/534.30"},
    // iPhones
    {"Mozilla/5.0 (iPhone; CPU iPhone OS 9_1 like Mac OS X) "
     "AppleWebKit/601.1.46 (KHTML, like Gecko) Version/9.0 Mobile/13B143 "
     "Safari/601.1"},
    {"Mozilla/5.0 (iPhone; CPU iPhone OS 8_4 like Mac OS X) "
     "AppleWebKit/600.1.4 (KHTML, like Gecko) CriOS/45.0.2454.89 "
     "Mobile/12H143 Safari/600.1.4"},
    // Tablets and other mobile (Misc)
    {"Mozilla/5.0 (iPad; CPU OS 9_1 like Mac OS X) AppleWebKit/601.1.46 "
     "(KHTML, like Gecko) Version/9.0 Mobile/13B143 Safari/601.1"},
    {"Mozilla/5.0 (Linux; Android 5.0.2; SM-T530 Build/LRX22G) "
     "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2490.76 "
     "Safari/537.36"},
    {"Mozilla/5.0 (Windows Phone 10.0; Android 4.2.1; Microsoft; Lumia 950) "
     "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/46.0.2486.0 Mobile "
     "Safari/537.36 Edge/13.10586"},
    {"Mozilla/5.0 (PlayStation 4 3.11) AppleWebKit/537.73 (KHTML, like "
     "Gecko)"},
    {"Mozilla/5.0 (Linux; U; Android 4.4.3; en-us; KFTHWI Build/KTU84M) "
     "AppleWebKit/537.36 (KHTML, like Gecko) Silk/3.68 like Chrome/39.0.2171"
     ".93 Safari/537.36"},
};

}  // namespace

UaBank::UaBank() {
  strings_.reserve(std::size(kBank));
  infos_.reserve(std::size(kBank));
  for (const auto& entry : kBank) {
    strings_.emplace_back(entry.ua);
    infos_.push_back(ParseUserAgent(entry.ua));
  }
}

std::vector<std::uint16_t> UaBank::IdsForDevice(DeviceType device) const {
  std::vector<std::uint16_t> ids;
  for (std::uint16_t i = 0; i < size(); ++i) {
    if (infos_[i].device == device && !infos_[i].is_bot) ids.push_back(i);
  }
  if (ids.empty()) {
    throw std::logic_error("UaBank: no UA strings for requested device type");
  }
  return ids;
}

const UaBank& UaBank::Instance() {
  static const UaBank bank;
  return bank;
}

}  // namespace atlas::trace
