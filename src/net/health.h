#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/protocol.h"

namespace ssresf::net {

/// Fleet health telemetry: the coordinator feeds every connect and heartbeat
/// into a FleetMonitor, which maintains per-worker counters plus an online
/// mean/variance (Welford) of per-chunk simulation time, and quarantines
/// workers that misbehave:
///
///   - kDigestMismatch: the heartbeat's records digest disagrees with what
///     the coordinator actually accepted — the worker's view of its own
///     output is wrong, so none of its future output can be trusted.
///   - kFlapping: reconnected more times than the flap limit — likely
///     crash-looping; its chunks are better spent elsewhere.
///   - kSlow: mean chunk time is a z-score outlier against the rest of the
///     fleet (each candidate is judged against the *other* workers'
///     accumulators, merged by Chan's parallel-variance formula — including
///     the candidate's own samples would inflate the variance and hide it).
///
/// Quarantine is an admission decision, not a correctness one: records
/// already accepted from a worker stay (determinism makes them as good as
/// anyone's); the worker is dropped and refused at its next hello. Two
/// liveness guards keep an aggressive detector from stalling the campaign:
/// the monitor never quarantines the last *connected* healthy worker
/// (workers that died without being quarantined must not count — they
/// cannot do any work), and a quarantined worker that reconnects while no
/// connected healthy worker exists is paroled rather than refused — a
/// degraded fleet that still finishes beats a pristine one that stalls.
struct HealthOptions {
  /// Reconnects (beyond the first connect) tolerated before kFlapping.
  int flap_limit = 5;
  /// z-score beyond which a worker's mean chunk time is an outlier. The
  /// spread it scales is at least 10% of the fleet mean and 10 ms.
  double sigma_limit = 4.0;
  /// Minimum per-chunk samples from the *rest* of the fleet before the
  /// slow-worker detector can fire (a z-score against two samples is noise).
  int min_fleet_samples = 8;
  /// Minimum samples from the candidate itself.
  int min_worker_samples = 2;
};

enum class QuarantineReason : std::uint8_t {
  kNone = 0,
  kDigestMismatch = 1,
  kFlapping = 2,
  kSlow = 3,
};

[[nodiscard]] const char* to_string(QuarantineReason reason);

struct WorkerHealth {
  std::uint64_t worker_id = 0;
  std::uint64_t connects = 0;
  std::uint64_t chunks = 0;
  std::uint64_t records = 0;
  double total_seconds = 0.0;
  /// Live TCP session right now (set on admitted connect, cleared by
  /// on_disconnect). The last-healthy guard counts only connected workers.
  bool connected = false;
  // Welford accumulator over per-chunk simulation seconds.
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  QuarantineReason reason = QuarantineReason::kNone;

  [[nodiscard]] bool quarantined() const {
    return reason != QuarantineReason::kNone;
  }
};

class FleetMonitor {
 public:
  explicit FleetMonitor(HealthOptions options = {});

  /// Registers a (re)connect. Returns false when the worker is quarantined —
  /// the coordinator must refuse it at hello — either from before or because
  /// this very connect crossed the flap limit. Exception: a quarantined
  /// worker reconnecting while no connected healthy worker exists is paroled
  /// (its quarantine is cleared and it is admitted) — refusing the only
  /// candidate would stall the campaign forever.
  [[nodiscard]] bool on_connect(std::uint64_t worker_id);

  /// Registers that a worker's session ended (clean or not). A disconnected
  /// worker keeps its history and its quarantine, but no longer counts
  /// toward the last-healthy guard.
  void on_disconnect(std::uint64_t worker_id);

  /// Feeds one heartbeat. `accepted_records_digest` is the FNV-1a of the
  /// last kRecords payload the coordinator accepted from this worker (0 when
  /// none was). Returns the reason applied *by this call*, kNone when the
  /// worker stays healthy.
  [[nodiscard]] QuarantineReason on_heartbeat(
      const HeartbeatMsg& heartbeat, std::uint64_t accepted_records_digest);

  [[nodiscard]] bool quarantined(std::uint64_t worker_id) const;
  [[nodiscard]] std::size_t healthy_count() const;
  [[nodiscard]] const std::map<std::uint64_t, WorkerHealth>& workers() const {
    return workers_;
  }

  /// Human-readable fleet table (`ssresf serve --fleet-status`).
  [[nodiscard]] std::string status_table() const;

 private:
  /// Applies `reason` unless this is the last connected healthy worker.
  /// Returns whether the quarantine took effect.
  bool try_quarantine(WorkerHealth& worker, QuarantineReason reason);

  [[nodiscard]] std::size_t connected_healthy_count() const;

  HealthOptions options_;
  std::map<std::uint64_t, WorkerHealth> workers_;
};

}  // namespace ssresf::net
