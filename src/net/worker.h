#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "net/chaos.h"
#include "net/coordinator.h"
#include "net/election.h"
#include "net/protocol.h"
#include "radiation/soft_error_db.h"
#include "util/error.h"

namespace ssresf::net {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int threads = 1;  // execution threads inside this worker process
  int lanes = 64;   // packed-engine lane width (64 | 256); execution-only
  /// Retry window for each connect (covers the worker-starts-before-
  /// coordinator race of a parallel launch, and a coordinator restart).
  double connect_timeout_seconds = 10.0;
  /// Shared scenario secret of the authenticated handshake ("" = open
  /// fleet; both sides must agree — the MAC covers the secret either way).
  std::string secret;
  /// Stable identity across reconnects (the coordinator's health/quarantine
  /// key AND the election tiebreak: the lowest id among capable candidates
  /// wins). 0 derives a fresh unique id at construction.
  std::uint64_t worker_id = 0;
  /// Consecutive failed sessions tolerated before run() gives up. A session
  /// that makes progress (completes at least one chunk) resets the count.
  int max_reconnect_attempts = 8;
  /// Exponential backoff between reconnect attempts: delay =
  /// min(cap, base * 2^(attempt-1)), scaled by deterministic jitter drawn
  /// from Rng::from_stream(worker_id, attempt).
  double backoff_base_seconds = 0.05;
  double backoff_cap_seconds = 2.0;

  // --- automatic failover (net/election.h) --------------------------------
  /// How long a lost coordinator is tolerated before this worker runs an
  /// election round instead of another reconnect. 0 disables elections
  /// entirely (the PR 6 behavior: retry the ladder, then give up). With a
  /// positive timeout the worker binds a peer-query listener, announces it
  /// in kHello, and mirrors the dispatch journal from kJournalSync frames.
  double election_timeout_seconds = 0.0;
  /// Peer-query listener port (0 = ephemeral) and its bind scope.
  std::uint16_t peer_port = 0;
  bool peer_loopback_only = true;
  /// Host other fleet members should dial to reach this worker's peer
  /// listener, announced in kHello (--advertise-addr). Empty (default): the
  /// coordinator derives the host from the hello connection's peer address,
  /// which only works when workers are mutually reachable at that address.
  /// Setting this also widens the peer listener bind from loopback to all
  /// interfaces — an advertised address must actually be dialable.
  std::string advertise_host;
  /// Budget of one peer-query round trip during an election round.
  double peer_timeout_seconds = 1.0;
  /// Where a promoted worker persists its replica as the new journal
  /// ("" = "<tmp>/ssresf_promoted_<worker_id>.ssjl").
  std::string promote_journal_path;
  /// Listener of the promoted coordinator (0 = ephemeral) and bind scope.
  std::uint16_t promote_port = 0;
  bool promote_loopback_only = true;
  /// Dispatch knobs a promoted coordinator serves with (chunk 0 = auto).
  std::uint64_t promote_chunk_injections = 0;
  double promote_worker_timeout_seconds = 120.0;
  double promote_frame_deadline_seconds = 30.0;
  /// The election epoch this worker believes current at start. A worker
  /// that lived through elections tracks the epoch automatically; the knob
  /// exists for standbys/tools joining a post-election fleet (and tests).
  std::uint64_t initial_epoch = 0;

  /// Test hook: disconnect cleanly after completing this many work items
  /// (0 = unlimited). Exercises the coordinator's late-leaver path.
  std::uint64_t max_chunks = 0;
  /// Test hook: after completing this many work items, accept the next one
  /// and vanish without replying — the deterministic stand-in for a worker
  /// killed mid-chunk. UINT64_MAX disables.
  std::uint64_t defect_after_chunks = UINT64_MAX;
  /// Test hook: fault-injection schedule applied at this worker's
  /// frame-send seam (non-owning; see net/chaos.h). Faulted connections go
  /// through the normal reconnect path.
  ChaosSchedule* chaos = nullptr;
  /// Test hook: report this value as every heartbeat's per-chunk seconds
  /// instead of the measured time (negative = measure). Drives the
  /// slow-worker detector deterministically.
  double chunk_seconds_override = -1.0;
  /// Test hook: corrupt the heartbeat's records digest — the coordinator's
  /// health monitor must quarantine this worker.
  bool corrupt_heartbeat_digest = false;
  bool verbose = false;
};

/// A coordinator-issued rejection (kError frame) or an authentication
/// failure: wrong secret, quarantined worker id, digest mismatch. Final —
/// the resilience loop never retries these; reconnecting cannot fix it.
class WorkerRejected : public Error {
 public:
  using Error::Error;
};

/// A coordinator whose challenge carries an election epoch older than what
/// this worker has lived through: a deposed primary back from the dead.
/// With elections enabled the worker abandons the endpoint and re-enters
/// discovery (the campaign lives elsewhere); with them disabled it is as
/// final as any other rejection.
class StaleCoordinator : public WorkerRejected {
 public:
  using WorkerRejected::WorkerRejected;
};

/// The deterministic backoff schedule (exposed for tests): delay for the
/// `attempt`-th consecutive failure (attempt >= 1), jittered into
/// [0.5, 1.0) x the exponential value via Rng::from_stream(worker_id,
/// attempt) — every worker backs off differently (no thundering herd), yet
/// identically across runs.
[[nodiscard]] double reconnect_backoff_seconds(std::uint64_t worker_id,
                                               int attempt, double base,
                                               double cap);

/// Campaign worker of the socket transport: connects, proves itself through
/// the mutual hello/challenge handshake (net/auth.h), receives the campaign
/// spec + golden bundle, rebuilds (model, config) locally and cross-checks
/// the coordinator's FNV-1a config digest, then pulls work items and streams
/// records + heartbeat telemetry back until shutdown.
///
/// Resilience: a lost connection (coordinator restart, chaos fault, network
/// drop) is not fatal — the worker reconnects with bounded exponential
/// backoff and re-runs the handshake; its campaign prep is cached by config
/// digest, so resuming costs a handshake, not a rebuild. A kReconnect frame
/// redirects it to a standby coordinator immediately. Only a protocol-level
/// rejection (kError frame, auth failure, digest mismatch) is fatal.
///
/// Self-healing (election_timeout_seconds > 0): the worker also mirrors the
/// coordinator's dispatch journal (kJournalSync) and serves peer queries.
/// Once the coordinator has been gone past the election timeout, the fleet
/// elects the lowest-id worker holding the golden bundle + an intact
/// replica among the roster all candidates agree on; the winner persists its replica, promotes itself to coordinator
/// at epoch+1 (see net/election.h), and rejoins its own campaign as a
/// worker so no capacity is lost. Losers discover the new head via peer
/// queries and reconnect. Worker::run() then returns normally; the merged
/// campaign result of a promoted worker is available via promoted_result().
class Worker {
 public:
  Worker(const radiation::SoftErrorDatabase& database, WorkerOptions options);
  ~Worker();

  [[nodiscard]] std::uint64_t worker_id() const { return options_.worker_id; }

  /// Runs sessions until the campaign shuts down cleanly. Returns the number
  /// of injection records produced across all sessions. Throws on auth
  /// failure, protocol violations, a campaign digest mismatch, or when
  /// max_reconnect_attempts consecutive sessions fail without progress
  /// (and, with elections enabled, no election round found a leader).
  std::uint64_t run();

  /// True when this worker won an election and served the campaign's tail
  /// as its coordinator.
  [[nodiscard]] bool promoted() const { return promoted_coordinator_ != nullptr; }

  /// The merged campaign result, present after run() iff promoted(): the
  /// elected worker is the fleet's exit point, so ITS process can emit the
  /// final CSV exactly as the dead coordinator's would have.
  [[nodiscard]] const std::optional<fi::CampaignResult>& promoted_result()
      const {
    return promoted_result_;
  }

 private:
  struct SessionState;
  enum class SessionEnd { kShutdown, kRedirect, kLost, kBudget };
  enum class ElectionOutcome { kPromoted, kFollow, kRetry };
  SessionEnd run_session(SessionState& state, std::string& host,
                         std::uint16_t& port, double connect_timeout);
  ElectionOutcome run_election(SessionState& state, std::string& host,
                               std::uint16_t& port);
  [[nodiscard]] bool stands_for_election(const SessionState& state) const;
  void publish_candidacy(const SessionState& state);
  void promote(SessionState& state, std::string& host, std::uint16_t& port);
  std::uint64_t run_inner();
  void join_promoted();

  const radiation::SoftErrorDatabase& db_;
  WorkerOptions options_;
  std::unique_ptr<PeerService> peers_;
  std::unique_ptr<SessionState> state_;
  /// Present after a won election: the coordinator this worker became. It
  /// runs on its own thread while the worker loop rejoins the campaign as
  /// an ordinary (self-connected) worker.
  std::unique_ptr<Coordinator> promoted_coordinator_;
  std::thread promoted_thread_;
  std::optional<fi::CampaignResult> promoted_result_;
  std::string promoted_error_;
};

}  // namespace ssresf::net
