#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "util/socket.h"

namespace ssresf::net {

/// Deterministic coordinator election, run by the workers themselves when
/// the head node dies and no standby exists.
///
/// Ingredients, all exchanged over the normal transport while the
/// coordinator is still alive:
///  - every election-capable worker runs a PeerService: a tiny listener
///    answering kPeerQuery with kPeerInfo (phase, epoch, candidacy);
///  - its port rides in kHello, and the coordinator broadcasts the roster
///    of (worker_id, host, peer_port) via kPeers on every membership change;
///  - the dispatch journal is live-replicated to every worker as
///    kJournalSync frames, so each holds a replayable prefix of dispatch
///    state next to the golden bundle it already caches by config digest.
///
/// When a worker's session is lost past election_timeout, it queries the
/// roster. If any peer already follows (or is) a coordinator at a HIGHER
/// epoch, it defers and reconnects there. Otherwise the winner is the
/// lowest worker id among the candidates — workers that hold the golden
/// bundle (and with it an intact journal replica) and are listed in their
/// own roster — within the agreed prefix of the roster (election_winner).
/// Every reachable candidate computes the same winner even when the
/// coordinator died before a roster update reached everyone, with no
/// negotiation round. The winner bumps the epoch, persists its replica as
/// the new journal, replays it through the tolerant reader (re-queuing
/// only unfilled runs — in particular the un-mirrored tail batches that
/// died with the primary), and serves; losers poll the winner's peer port
/// until it reports kPromoted, then join as ordinary workers via the
/// reconnect ladder.
///
/// Split-brain is impossible by construction: the epoch is bound into the
/// handshake MAC (net/auth.h), so a deposed primary returning from the dead
/// fails every worker's challenge check and is rejected, not followed.

/// Answers kPeerQuery on a dedicated listener for the lifetime of a Worker.
/// The worker thread publishes its state through the setters; the service
/// thread serves snapshots under the same mutex — no shared state is ever
/// touched unlocked (the election tests run under TSan).
class PeerService {
 public:
  /// Binds the listener (port 0 = ephemeral; read back via port()) and
  /// starts the service thread.
  PeerService(std::uint64_t worker_id, std::uint16_t port, bool loopback_only);
  ~PeerService();

  PeerService(const PeerService&) = delete;
  PeerService& operator=(const PeerService&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// In a live session with the coordinator at host:port (host "" = not
  /// shareable, e.g. learned over AF_UNIX). Keeps epoch current so late
  /// electors can follow this pointer instead of re-electing.
  void set_serving(std::uint64_t epoch, const std::string& coordinator_host,
                   std::uint16_t coordinator_port);
  /// Session lost; the stale coordinator pointer is withdrawn immediately
  /// so peers cannot chase it mid-election.
  void set_lost();
  void set_electing();
  /// Won the election: serving the campaign ourselves at `port` (host is
  /// reported empty = "where you reached me").
  void set_promoted(std::uint64_t epoch, std::uint16_t coordinator_port);
  /// Candidacy inputs, refreshed whenever one changes (bundle, kPeers,
  /// kJournalSync) so that peers read them as they stood at the
  /// coordinator's death.
  void set_candidacy(bool candidate, std::uint64_t replica_entries,
                     std::uint64_t roster_size);

  [[nodiscard]] PeerInfoMsg snapshot() const;

 private:
  void serve_loop();

  util::ListenSocket listener_;
  mutable std::mutex mutex_;
  PeerInfoMsg info_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

/// The winner an elector computes from its own roster and this round's
/// replies (`replies[i]` answers `roster[i]`; nullopt for the elector
/// itself and for unreachable peers, which are not candidates this round;
/// replies from another epoch do not count). nullopt = nobody stands.
///
/// The coordinator's roster only grows, in admission order, so every
/// roster a worker holds is a prefix of one sequence, and a candidate is
/// listed in its own roster. Let L be the shortest roster any candidate
/// holds: every candidate's roster extends the first L entries, and every
/// candidate holding a roster that short is listed in every other
/// candidate's roster. So every candidate finds the same L and the same
/// candidates within it, and the lowest id among those wins — one winner
/// even when a kPeers update died unread with the coordinator. Without
/// the prefix, a worker that missed the update listing a lower-id
/// newcomer would elect itself while the newcomer did the same.
[[nodiscard]] std::optional<std::uint64_t> election_winner(
    std::uint64_t self_id, bool self_candidate, std::uint64_t epoch,
    const std::vector<PeerEntry>& roster,
    const std::vector<std::optional<PeerInfoMsg>>& replies);

/// One kPeerQuery round trip: connect, ask, decode. Returns nullopt when
/// the peer is unreachable, times out, or answers garbage — an unreachable
/// peer is simply not a candidate this round, never an error.
[[nodiscard]] std::optional<PeerInfoMsg> query_peer(
    const std::string& host, std::uint16_t port, std::uint64_t asking_worker_id,
    double timeout_seconds);

}  // namespace ssresf::net
