#include "analysis/sessions.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/feed.h"

namespace atlas::analysis {

double SessionResult::MedianIatSeconds() const {
  return iat_seconds.empty() ? 0.0 : iat_seconds.Median();
}

double SessionResult::MedianSessionSeconds() const {
  return session_length_seconds.empty() ? 0.0
                                        : session_length_seconds.Median();
}

SessionAccumulator::SessionAccumulator(std::int64_t timeout_ms,
                                       std::size_t size_hint)
    : timeout_ms_(timeout_ms) {
  if (timeout_ms <= 0) {
    throw std::invalid_argument("SessionAccumulator: bad timeout");
  }
  open_.reserve(size_hint / 4 + 1);
}

void SessionAccumulator::CloseSession(const Session& s) {
  result_.session_length_seconds.Add(static_cast<double>(s.LengthMs()) /
                                     1000.0);
  result_.requests_per_session.Add(static_cast<double>(s.requests));
  ++result_.session_count;
}

void SessionAccumulator::AddBatch(const trace::RecordBlock& b,
                                  const std::uint32_t* rows, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::int64_t ts = b.timestamp_ms[i];
    if (any_ && ts < last_ts_) {
      throw std::invalid_argument(
          "SessionAccumulator: input not sorted by time");
    }
    any_ = true;
    last_ts_ = ts;

    const std::uint64_t user = b.user_id[i];
    auto [current, inserted] = open_.TryEmplace(user);
    if (inserted) {
      current->user_id = user;
      current->start_ms = ts;
      current->end_ms = ts;
      current->requests = 1;
      continue;
    }
    // Every consecutive same-user gap feeds the IAT CDF, in or out of
    // session (Fig. 11 plots all gaps).
    result_.iat_seconds.Add(static_cast<double>(ts - current->end_ms) /
                            1000.0);
    if (ts - current->end_ms > timeout_ms_) {
      CloseSession(*current);
      current->start_ms = ts;
      current->requests = 0;
    }
    current->end_ms = ts;
    ++current->requests;
  }
}

SessionResult SessionAccumulator::Finalize(const std::string& site_name) {
  result_.site = site_name;
  // The Ecdfs sort on Finalize and the count commutes, so table layout
  // order is fine here.
  open_.ForEach(
      [&](std::uint64_t, const Session& session) { CloseSession(session); });
  open_.clear();
  result_.iat_seconds.Finalize();
  result_.session_length_seconds.Finalize();
  result_.requests_per_session.Finalize();
  return std::move(result_);
}

SessionResult ComputeSessions(const trace::TraceBuffer& trace,
                              const std::string& site_name,
                              std::int64_t timeout_ms) {
  SessionAccumulator acc(timeout_ms, trace.size());
  // The Ecdf-based result only depends on each user's sorted timestamps,
  // so an unsorted buffer is fed in stable time order.
  FeedTraceByTime(trace, acc);
  return acc.Finalize(site_name);
}

}  // namespace atlas::analysis
