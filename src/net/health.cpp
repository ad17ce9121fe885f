#include "net/health.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace ssresf::net {

namespace {

struct Accumulator {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  /// Chan's parallel-variance merge: exact combination of two Welford
  /// accumulators without revisiting samples.
  void merge(std::uint64_t bn, double bmean, double bm2) {
    if (bn == 0) return;
    if (n == 0) {
      n = bn;
      mean = bmean;
      m2 = bm2;
      return;
    }
    const double delta = bmean - mean;
    const std::uint64_t total = n + bn;
    mean += delta * static_cast<double>(bn) / static_cast<double>(total);
    m2 += bm2 + delta * delta * static_cast<double>(n) *
                    static_cast<double>(bn) / static_cast<double>(total);
    n = total;
  }
};

}  // namespace

const char* to_string(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNone:
      return "healthy";
    case QuarantineReason::kDigestMismatch:
      return "records-digest-mismatch";
    case QuarantineReason::kFlapping:
      return "flapping";
    case QuarantineReason::kSlow:
      return "slow-outlier";
  }
  return "?";
}

FleetMonitor::FleetMonitor(HealthOptions options) : options_(options) {}

bool FleetMonitor::on_connect(std::uint64_t worker_id) {
  WorkerHealth& worker = workers_[worker_id];
  worker.worker_id = worker_id;
  worker.connects += 1;
  if (worker.quarantined()) {
    // Parole: with no connected healthy worker left, refusing the only
    // candidate would stall the campaign forever. Determinism makes even a
    // slow or flapping worker's records as good as anyone's.
    if (connected_healthy_count() == 0) {
      worker.reason = QuarantineReason::kNone;
      worker.connected = true;
      return true;
    }
    return false;
  }
  worker.connected = true;
  // connects - 1 reconnects so far; crossing the limit means crash-looping.
  if (worker.connects > 0 &&
      worker.connects - 1 > static_cast<std::uint64_t>(options_.flap_limit)) {
    if (try_quarantine(worker, QuarantineReason::kFlapping)) {
      worker.connected = false;
      return false;
    }
  }
  return true;
}

void FleetMonitor::on_disconnect(std::uint64_t worker_id) {
  const auto it = workers_.find(worker_id);
  if (it != workers_.end()) it->second.connected = false;
}

QuarantineReason FleetMonitor::on_heartbeat(
    const HeartbeatMsg& heartbeat, std::uint64_t accepted_records_digest) {
  WorkerHealth& worker = workers_[heartbeat.worker_id];
  worker.worker_id = heartbeat.worker_id;
  worker.chunks = heartbeat.chunks_done;
  worker.records = heartbeat.records_produced;
  worker.total_seconds = heartbeat.total_seconds;
  if (worker.quarantined()) return QuarantineReason::kNone;

  if (accepted_records_digest != 0 &&
      heartbeat.last_records_digest != accepted_records_digest) {
    if (try_quarantine(worker, QuarantineReason::kDigestMismatch)) {
      return QuarantineReason::kDigestMismatch;
    }
    return QuarantineReason::kNone;
  }

  // Welford update with this chunk's simulation time.
  worker.n += 1;
  const double delta = heartbeat.last_chunk_seconds - worker.mean;
  worker.mean += delta / static_cast<double>(worker.n);
  worker.m2 += delta * (heartbeat.last_chunk_seconds - worker.mean);

  if (worker.n < static_cast<std::uint64_t>(options_.min_worker_samples)) {
    return QuarantineReason::kNone;
  }
  // Judge this worker's mean against the REST of the fleet: merging every
  // other healthy worker's accumulator (Chan) and excluding the candidate —
  // an outlier's own samples would inflate the variance and mask it.
  Accumulator rest;
  for (const auto& [id, other] : workers_) {
    if (id == heartbeat.worker_id || other.quarantined()) continue;
    rest.merge(other.n, other.mean, other.m2);
  }
  if (rest.n < static_cast<std::uint64_t>(options_.min_fleet_samples)) {
    return QuarantineReason::kNone;
  }
  const double variance = rest.m2 / static_cast<double>(rest.n);
  // Floor the spread at 10% of the fleet mean and at 10 ms: a near-uniform
  // fleet must not flag jitter as a multi-sigma outlier, and on a loaded
  // host one descheduled chunk stalls for milliseconds whatever the chunk
  // size. So a worker must lag by more than sigma_limit x 10 ms per chunk
  // to be slow — with sub-millisecond chunks only a gross straggler is.
  const double spread =
      std::max({std::sqrt(variance), 0.1 * rest.mean, 0.01});
  const double z = (worker.mean - rest.mean) / spread;
  if (z > options_.sigma_limit) {
    if (try_quarantine(worker, QuarantineReason::kSlow)) {
      return QuarantineReason::kSlow;
    }
  }
  return QuarantineReason::kNone;
}

bool FleetMonitor::quarantined(std::uint64_t worker_id) const {
  const auto it = workers_.find(worker_id);
  return it != workers_.end() && it->second.quarantined();
}

std::size_t FleetMonitor::healthy_count() const {
  std::size_t count = 0;
  for (const auto& [id, worker] : workers_) {
    (void)id;
    if (!worker.quarantined()) ++count;
  }
  return count;
}

bool FleetMonitor::try_quarantine(WorkerHealth& worker,
                                  QuarantineReason reason) {
  if (worker.quarantined()) return true;
  // Never quarantine the last CONNECTED healthy worker: a degraded fleet
  // that still finishes beats a pristine one that stalls. Counting every
  // worker ever seen would let a dead (but never-quarantined) worker stand
  // in for a live one, and an aggressive detector could then quarantine the
  // entire surviving fleet and deadlock the campaign.
  if (connected_healthy_count() <= 1) return false;
  worker.reason = reason;
  return true;
}

std::size_t FleetMonitor::connected_healthy_count() const {
  std::size_t count = 0;
  for (const auto& [id, worker] : workers_) {
    (void)id;
    if (worker.connected && !worker.quarantined()) ++count;
  }
  return count;
}

std::string FleetMonitor::status_table() const {
  std::ostringstream out;
  out << "worker            connects  chunks  records     mean-chunk  status\n";
  for (const auto& [id, w] : workers_) {
    out << std::left << std::setw(16) << id << "  " << std::right
        << std::setw(8) << w.connects << "  " << std::setw(6) << w.chunks
        << "  " << std::setw(7) << w.records << "  " << std::setw(11)
        << std::fixed << std::setprecision(4) << w.mean << "s  "
        << to_string(w.reason) << "\n";
  }
  if (workers_.empty()) out << "(no workers have connected)\n";
  return out.str();
}

}  // namespace ssresf::net
