// User request inter-arrival times and session lengths (Figs. 11, 12).
//
// "a session consists of consecutive user requests within a timeout
// interval. We set the timeout value for user sessions at 10 minutes based
// on our earlier analysis of user request IAT distributions." Session
// length is last-request minus first-request inside the session — "a
// strictly lower-bound of traditional bounce time".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/ecdf.h"
#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

inline constexpr std::int64_t kSessionTimeoutMs = 10 * 60 * 1000;

struct Session {
  std::uint64_t user_id = 0;
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
  std::uint32_t requests = 0;

  std::int64_t LengthMs() const { return end_ms - start_ms; }
};

struct SessionResult {
  std::string site;
  // Fig. 11: consecutive same-user request gaps, in seconds (all gaps, not
  // just in-session ones).
  stats::Ecdf iat_seconds;
  // Fig. 12: session lengths in seconds.
  stats::Ecdf session_length_seconds;
  stats::Ecdf requests_per_session;
  std::uint64_t session_count = 0;

  double MedianIatSeconds() const;
  double MedianSessionSeconds() const;
};

// Single-pass accumulator behind ComputeSessions. Requires records in
// non-decreasing timestamp order (throws std::invalid_argument otherwise);
// state is one open session per user, not the full timestamp list, so
// arbitrarily long traces stream through. The Ecdf-based result is
// independent of cross-user interleaving, so any sorted order of the same
// records gives the same result.
class SessionAccumulator {
 public:
  explicit SessionAccumulator(std::int64_t timeout_ms = kSessionTimeoutMs,
                              std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order;
  // the sorted-input check runs row by row.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  SessionResult Finalize(const std::string& site_name);

 private:
  void CloseSession(const Session& s);

  std::int64_t timeout_ms_;
  util::FlatHashMap<std::uint64_t, Session> open_;
  std::int64_t last_ts_ = 0;
  bool any_ = false;
  SessionResult result_;
};

// `timeout_ms` parameterizes the sessionization (the paper uses 10 min).
SessionResult ComputeSessions(const trace::TraceBuffer& trace,
                              const std::string& site_name,
                              std::int64_t timeout_ms = kSessionTimeoutMs);

}  // namespace atlas::analysis
