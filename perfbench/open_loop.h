// Open-loop request generator for the serving benchmark.
//
// One thread drives every connection: requests are sent when they fall due
// on a precomputed schedule, whether or not earlier ones have been answered
// (independent pooling workers, not callers waiting on each other). Each
// connection keeps at most `window` requests outstanding, matching the
// server's per-connection in-flight budget, so an overloaded server shows
// up as generator lateness and latency instead of load shedding.
//
// Latency is taken from the scheduled time, so a stall also charges the
// requests queued behind it; lateness (send - due) is recorded per request
// so a stalled generator cannot pass as a fast server.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.h"

namespace perfbench {

/// Seconds on the steady clock; shared by the generator and the handler
/// stamps so their differences are meaningful.
double SteadyNow();

struct Request {
  /// Seconds after the phase start at which the request falls due.
  double due = 0.0;
  ipool::net::Method method = ipool::net::Method::kGetRecommendation;
  std::string payload;
  /// Index of the document key a GET reads (unused for publishes).
  uint32_t key = 0;
  /// GET of a tuning document rather than a recommendation.
  bool tuning_doc = false;
  /// Requests sharing a nonzero group go out one at a time, each after the
  /// previous one is answered: the server may run a connection's requests
  /// in any order, and telemetry appends must stay time-ordered per metric.
  uint32_t order_group = 0;
};

struct Outcome {
  double sent = -1.0;  ///< steady seconds; < 0 when never sent
  double recv = -1.0;  ///< steady seconds; < 0 when never answered
  ipool::net::WireStatus status = ipool::net::WireStatus::kInternal;
  /// Hash of a GET response payload (0 otherwise).
  uint64_t payload_hash = 0;
  /// The GET payload parsed as a recommendation / tuning document.
  bool parsed = false;
};

struct OpenLoopResult {
  double start = 0.0;  ///< steady seconds of due time 0
  std::vector<Outcome> outcomes;  ///< one per request, same order
  uint64_t protocol_errors = 0;   ///< bad frames or unknown request ids
  uint64_t transport_errors = 0;  ///< connect/send/recv failures
};

struct OpenLoopConfig {
  uint16_t port = 0;
  size_t connections = 4;
  /// Outstanding requests per connection.
  size_t window = 64;
  /// After the last due time, how long to wait for stragglers.
  double drain_seconds = 5.0;
  /// Parse verdict per distinct GET payload hash, shared across phases so
  /// each document is parsed once. Must not be null.
  std::unordered_map<uint64_t, bool>* parsed = nullptr;
};

/// Sends `requests` (sorted by due) and returns when all are answered or
/// the drain timeout expires. Request ids are 1 + the request index, so a
/// server-side stamp can be joined to the request. Runs on the calling
/// thread.
OpenLoopResult RunOpenLoop(const OpenLoopConfig& config,
                           const std::vector<Request>& requests);

/// Hash used to compare served bytes with stored documents.
uint64_t PayloadHash(const std::string& bytes);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
