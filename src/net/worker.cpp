#include "net/worker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>

#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "net/auth.h"
#include "net/journal.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/timer.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace ssresf::net {

double reconnect_backoff_seconds(std::uint64_t worker_id, int attempt,
                                 double base, double cap) {
  if (attempt < 1) return 0.0;
  double delay = base;
  for (int i = 1; i < attempt && delay < cap; ++i) delay *= 2.0;
  delay = std::min(delay, cap);
  util::Rng rng =
      util::Rng::from_stream(worker_id, static_cast<std::uint64_t>(attempt));
  return delay * (0.5 + 0.5 * rng.uniform());
}

/// Everything a session leaves behind for the next one: the campaign prep
/// cached by config digest (a reconnect costs a handshake, not a golden
/// rebuild) plus lifetime counters (chunk budgets and heartbeat telemetry
/// span sessions — the coordinator tracks the worker, not the connection).
struct Worker::SessionState {
  bool prepared = false;
  std::uint64_t digest = 0;
  std::optional<soc::SocModel> model;
  fi::CampaignConfig config;
  std::optional<fi::detail::CampaignPrep> prep;
  std::vector<fi::InjectionRecord> records;

  std::uint64_t produced = 0;
  std::uint64_t chunks_done = 0;
  double total_seconds = 0.0;
  bool progressed_this_session = false;

  // --- self-healing state (net/election.h) --------------------------------
  /// The campaign spec as shipped — exactly what a self-promotion feeds the
  /// replacement Coordinator.
  CampaignSpec spec;
  /// The coordinator incarnation whose journal `replica` mirrors. Entry
  /// order is only meaningful within one incarnation, so the replica is
  /// discarded whenever the id changes. 0 = the coordinator runs no journal.
  std::uint64_t journal_id = 0;
  /// Verified on-disk-format journal entries, in order. Always an intact
  /// prefix: every entry passed decode_journal_entry before admission.
  std::vector<std::vector<std::uint8_t>> replica;
  /// Fleet roster from the last kPeers broadcast of the current coordinator
  /// incarnation (an admission order is only meaningful within one).
  std::vector<PeerEntry> roster;
  /// Highest election epoch proven to us through a handshake MAC.
  std::uint64_t known_epoch = 0;
};

Worker::Worker(const radiation::SoftErrorDatabase& database,
               WorkerOptions options)
    : db_(database), options_(std::move(options)) {
  if (options_.worker_id == 0) options_.worker_id = fresh_nonce();
  if (options_.connect_timeout_seconds <= 0.0) {
    throw InvalidArgument("worker: connect timeout must be positive, got " +
                          std::to_string(options_.connect_timeout_seconds));
  }
  if (options_.election_timeout_seconds < 0.0) {
    throw InvalidArgument("worker: election timeout must be >= 0, got " +
                          std::to_string(options_.election_timeout_seconds));
  }
  if (options_.peer_timeout_seconds <= 0.0) {
    throw InvalidArgument("worker: peer timeout must be positive, got " +
                          std::to_string(options_.peer_timeout_seconds));
  }
}

Worker::~Worker() { join_promoted(); }

void Worker::join_promoted() {
  if (promoted_thread_.joinable()) promoted_thread_.join();
}

std::uint64_t Worker::run() {
  std::uint64_t produced = 0;
  try {
    produced = run_inner();
  } catch (const Error& e) {
    // Once this worker IS the coordinator, its own worker lane is
    // best-effort: the campaign's fate is the promoted coordinator's, so a
    // lane rejection (e.g. its self-session quarantined as a slow outlier)
    // must not kill the process that holds the merge.
    if (!promoted()) throw;
    if (options_.verbose) {
      std::fprintf(stderr, "worker: promoted; own worker lane ended: %s\n",
                   e.what());
    }
  }
  // A promoted worker only gets its clean kShutdown once its own coordinator
  // has merged the last record, so this join is a formality — but it is the
  // synchronization point that makes promoted_result_ safe to read.
  join_promoted();
  if (!promoted_error_.empty()) {
    throw Error("worker: promoted coordinator failed: " + promoted_error_);
  }
  return produced;
}

std::uint64_t Worker::run_inner() {
  const auto log = [&](const char* fmt, auto... args) {
    if (options_.verbose) {
      std::fprintf(stderr, "worker: ");
      std::fprintf(stderr, fmt, args...);
      std::fputc('\n', stderr);
    }
  };

  state_ = std::make_unique<SessionState>();
  SessionState& state = *state_;
  state.known_epoch = options_.initial_epoch;
  const bool elections = options_.election_timeout_seconds > 0.0;
  if (elections && peers_ == nullptr) {
    const bool loopback =
        options_.peer_loopback_only && options_.advertise_host.empty();
    peers_ = std::make_unique<PeerService>(options_.worker_id,
                                           options_.peer_port, loopback);
    log("peer service listening on port %u",
        static_cast<unsigned>(peers_->port()));
  }

  std::string host = options_.host;
  std::uint16_t port = options_.port;
  int attempt = 0;
  int election_rounds = 0;
  bool lost = false;
  std::chrono::steady_clock::time_point lost_since{};
  for (;;) {
    if (attempt > 0) {
      // Once the coordinator has been gone past the election timeout, the
      // ladder stops and the fleet heals itself. A promoted worker never
      // re-enters an election: it IS the coordinator now.
      const bool past_timeout =
          elections && !promoted() && lost &&
          std::chrono::steady_clock::now() - lost_since >=
              std::chrono::duration<double>(options_.election_timeout_seconds);
      if (past_timeout) {
        if (election_rounds >= std::max(options_.max_reconnect_attempts, 1)) {
          throw Error("worker: no election winner after " +
                      std::to_string(election_rounds) +
                      " rounds; giving up on the campaign");
        }
        ++election_rounds;
        const ElectionOutcome outcome = run_election(state, host, port);
        if (outcome == ElectionOutcome::kRetry) {
          const double delay = reconnect_backoff_seconds(
              options_.worker_id, election_rounds,
              options_.backoff_base_seconds, options_.backoff_cap_seconds);
          log("election round %d inconclusive, next round in %.3fs",
              election_rounds, delay);
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
          continue;
        }
        // Promoted, or following a newer coordinator: connect right away.
        attempt = 0;
        lost = false;
      } else {
        if (attempt > options_.max_reconnect_attempts) {
          throw Error("worker: giving up after " + std::to_string(attempt - 1) +
                      " consecutive failed sessions against " + host + ":" +
                      std::to_string(port));
        }
        const double delay = reconnect_backoff_seconds(
            options_.worker_id, attempt, options_.backoff_base_seconds,
            options_.backoff_cap_seconds);
        log("reconnect attempt %d in %.3fs", attempt, delay);
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }
    state.progressed_this_session = false;
    // While a loss is on the clock, the connect-retry window must not
    // outlive the election deadline — election_timeout is the failover
    // latency promise, and a 60s operator-tuned connect window would
    // otherwise pin the worker against a dead port long past it.
    double connect_timeout = options_.connect_timeout_seconds;
    if (elections && !promoted() && lost) {
      const double remaining =
          options_.election_timeout_seconds -
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        lost_since)
              .count();
      connect_timeout = std::min(connect_timeout, std::max(remaining, 0.05));
    }
    try {
      switch (run_session(state, host, port, connect_timeout)) {
        case SessionEnd::kShutdown:
        case SessionEnd::kBudget:
          return state.produced;
        case SessionEnd::kRedirect:
          log("redirected to %s:%u", host.c_str(),
              static_cast<unsigned>(port));
          attempt = 0;  // a redirect is an instruction, not a failure
          lost = false;
          continue;
        case SessionEnd::kLost:
          break;
      }
    } catch (const StaleCoordinator& e) {
      // A deposed primary is back from the dead. With elections the campaign
      // simply lives elsewhere — fall through to discovery; without them
      // this is as final as any rejection.
      if (!elections) throw;
      log("stale coordinator at %s:%u: %s", host.c_str(),
          static_cast<unsigned>(port), e.what());
    } catch (const WorkerRejected&) {
      throw;  // a rejection is final; reconnecting cannot fix it
    } catch (const InvalidArgument&) {
      throw;  // protocol violations and digest mismatches are bugs, not luck
    } catch (const Error& e) {
      log("session lost: %s", e.what());
    }
    if (peers_ != nullptr) peers_->set_lost();
    // The election clock starts at the FIRST loss and resets on progress —
    // a flapping-but-working coordinator never triggers an election.
    if (state.progressed_this_session || !lost) {
      lost = true;
      lost_since = std::chrono::steady_clock::now();
    }
    if (state.progressed_this_session) election_rounds = 0;
    // A session that completed work earned a fresh backoff ladder.
    attempt = state.progressed_this_session ? 1 : attempt + 1;
  }
}

Worker::ElectionOutcome Worker::run_election(SessionState& state,
                                             std::string& host,
                                             std::uint16_t& port) {
  const auto log = [&](const char* fmt, auto... args) {
    if (options_.verbose) {
      std::fprintf(stderr, "worker: ");
      std::fprintf(stderr, fmt, args...);
      std::fputc('\n', stderr);
    }
  };
  peers_->set_electing();
  publish_candidacy(state);

  // Every reachable candidate computes the same winner (election_winner):
  // the lowest id among candidates within the roster prefix they all hold.
  // Their journal replicas are intact prefixes by construction, so any
  // candidate can resume the campaign without losing filled runs.
  std::vector<std::optional<PeerInfoMsg>> replies(state.roster.size());
  bool newer_epoch = false;
  for (std::size_t i = 0; i < state.roster.size(); ++i) {
    const PeerEntry& peer = state.roster[i];
    if (peer.worker_id == options_.worker_id) continue;
    replies[i] = query_peer(peer.host, peer.peer_port, options_.worker_id,
                            options_.peer_timeout_seconds);
    if (!replies[i].has_value()) continue;  // unreachable = not a candidate
    const PeerInfoMsg& info = *replies[i];
    if (info.epoch <= state.known_epoch) continue;
    if ((info.phase == PeerPhase::kPromoted ||
         info.phase == PeerPhase::kServing) &&
        info.coordinator_port != 0) {
      // Someone already serves (or follows) the campaign at a newer epoch —
      // the election is over; join them. The epoch claim is gossip, so we do
      // NOT adopt it here: the handshake MAC will prove it on connect.
      host = info.coordinator_host.empty() ? peer.host : info.coordinator_host;
      port = info.coordinator_port;
      log("election: following worker %llu to %s:%u (epoch %llu)",
          static_cast<unsigned long long>(info.worker_id), host.c_str(),
          static_cast<unsigned>(port),
          static_cast<unsigned long long>(info.epoch));
      return ElectionOutcome::kFollow;
    }
    newer_epoch = true;
  }
  if (newer_epoch) {
    // Peers that lived through a later election are electing again; our
    // roster is from an older coordinator, so we must not stand against
    // them. Their winner reports kPromoted soon.
    log("election: peers are at a newer epoch, waiting for their winner");
    return ElectionOutcome::kRetry;
  }
  const std::optional<std::uint64_t> winner =
      election_winner(options_.worker_id, stands_for_election(state),
                      state.known_epoch, state.roster, replies);
  if (!winner.has_value()) {
    log("election: no candidate holds the golden bundle yet");
    return ElectionOutcome::kRetry;
  }
  if (*winner != options_.worker_id) {
    // The winner promotes itself on its own schedule; we will see kPromoted
    // on its peer port next round and follow.
    log("election: deferring to worker %llu",
        static_cast<unsigned long long>(*winner));
    return ElectionOutcome::kRetry;
  }
  try {
    promote(state, host, port);
  } catch (const Error& e) {
    // Promotion can fail before anything is published (journal write, port
    // bind). Withdraw cleanly; some other round — ours or a peer's — wins.
    log("election: promotion failed: %s", e.what());
    promoted_coordinator_.reset();
    return ElectionOutcome::kRetry;
  }
  return ElectionOutcome::kPromoted;
}

bool Worker::stands_for_election(const SessionState& state) const {
  // Being listed in its own roster is what election_winner's agreement
  // rests on: a worker the coordinator never announced cannot be weighed
  // by the peers that would have to defer to it.
  return state.prepared &&
         std::any_of(state.roster.begin(), state.roster.end(),
                     [&](const PeerEntry& peer) {
                       return peer.worker_id == options_.worker_id;
                     });
}

void Worker::publish_candidacy(const SessionState& state) {
  if (peers_ == nullptr) return;
  peers_->set_candidacy(stands_for_election(state), state.replica.size(),
                        state.roster.size());
}

void Worker::promote(SessionState& state, std::string& host,
                     std::uint16_t& port) {
  const std::uint64_t epoch = state.known_epoch + 1;
  std::string journal_path = options_.promote_journal_path;
  if (journal_path.empty()) {
    journal_path =
        (std::filesystem::temp_directory_path() /
         ("ssresf_promoted_" + std::to_string(options_.worker_id) + ".ssjl"))
            .string();
  }
  // Persist the replica as a real journal. The Coordinator resumes from it
  // through the tolerant reader, re-queuing exactly the runs the dead
  // primary never mirrored to us (in particular its un-flushed tail).
  write_replica_journal(journal_path, state.digest, state.prep->plan.size(),
                        state.replica);

  CoordinatorOptions copts;
  copts.port = options_.promote_port;
  copts.loopback_only = options_.promote_loopback_only;
  copts.chunk_injections = options_.promote_chunk_injections;
  copts.worker_timeout_seconds = options_.promote_worker_timeout_seconds;
  copts.frame_deadline_seconds = options_.promote_frame_deadline_seconds;
  copts.secret = options_.secret;
  copts.journal_path = journal_path;
  copts.epoch = epoch;
  copts.verbose = options_.verbose;
  promoted_coordinator_ = std::make_unique<Coordinator>(state.spec, db_, copts);

  // Publish BEFORE run(): the listener binds in the constructor, so losers
  // polling our peer service can start connecting while we spin up.
  peers_->set_promoted(epoch, promoted_coordinator_->port());
  state.known_epoch = epoch;
  promoted_thread_ = std::thread([this] {
    try {
      promoted_result_ = promoted_coordinator_->run();
    } catch (const Error& e) {
      promoted_error_ = e.what();
    }
  });
  // Rejoin our own campaign as an ordinary worker — an election must not
  // cost the fleet a lane.
  host = "127.0.0.1";
  port = promoted_coordinator_->port();
}

Worker::SessionEnd Worker::run_session(SessionState& state, std::string& host,
                                       std::uint16_t& port,
                                       double connect_timeout) {
  const auto log = [&](const char* fmt, auto... args) {
    if (options_.verbose) {
      std::fprintf(stderr, "worker: ");
      std::fprintf(stderr, fmt, args...);
      std::fputc('\n', stderr);
    }
  };
  // All sends go through the chaos seam when a schedule is installed; a
  // fault that closes the socket surfaces as a lost session, never a crash.
  const auto send = [&](util::Socket& socket, MsgType type,
                        std::span<const std::uint8_t> payload) {
    if (options_.chaos != nullptr) {
      if (!options_.chaos->send_frame(socket, type, payload)) {
        throw Error("worker: connection lost to injected fault");
      }
      return;
    }
    send_frame(socket, type, payload);
  };

  util::Socket socket = util::connect_to(host, port, connect_timeout);

  // --- authenticated handshake (net/auth.h) -------------------------------
  HelloMsg hello;
#ifndef _WIN32
  hello.pid = static_cast<std::uint64_t>(::getpid());
#endif
  hello.worker_id = options_.worker_id;
  hello.threads = static_cast<std::uint32_t>(std::max(options_.threads, 1));
  hello.nonce = fresh_nonce();
  hello.peer_port = peers_ != nullptr ? peers_->port() : 0;
  hello.peer_host = options_.advertise_host;
  send(socket, MsgType::kHello, encode_payload(hello));

  // A handoff can fire at any point, including mid-handshake — follow the
  // redirect instead of treating it as a protocol violation.
  const auto follow_redirect = [&](const Frame& f) {
    util::ByteReader redirect_payload(f.payload);
    const ReconnectMsg redirect = ReconnectMsg::decode(redirect_payload);
    host = redirect.host.empty() ? host : redirect.host;
    port = redirect.port;
  };

  Frame frame;
  if (!recv_frame(socket, frame)) {
    throw Error("worker: coordinator hung up before the campaign handshake");
  }
  if (frame.type == MsgType::kShutdown) {
    // We raced the campaign's end: connected just as the last record landed.
    // Nothing to do is a clean outcome, not a protocol violation.
    log("campaign already complete, nothing to do");
    return SessionEnd::kShutdown;
  }
  if (frame.type == MsgType::kReconnect) {
    follow_redirect(frame);
    return SessionEnd::kRedirect;
  }
  if (frame.type == MsgType::kError) {
    util::ByteReader payload(frame.payload);
    throw WorkerRejected("worker: coordinator rejected us: " +
                         ErrorMsg::decode(payload).message);
  }
  if (frame.type != MsgType::kChallenge) {
    throw InvalidArgument("worker: expected the auth challenge first");
  }
  ChallengeMsg challenge;
  {
    util::ByteReader payload(frame.payload);
    challenge = ChallengeMsg::decode(payload);
  }
  // Epoch guard before anything else: a coordinator serving an election
  // epoch we have already seen superseded is a deposed primary back from
  // the dead — never follow it, no matter how good its MAC is.
  if (challenge.epoch < state.known_epoch) {
    throw StaleCoordinator("worker: coordinator serves election epoch " +
                           std::to_string(challenge.epoch) +
                           " but the fleet has moved on to " +
                           std::to_string(state.known_epoch));
  }
  // Mutual auth: the coordinator must have proven itself over OUR nonce
  // before we compute anything for it — a rogue listener learns nothing but
  // a digest.
  const std::uint64_t expect_mac =
      handshake_mac(options_.secret, kProtocolVersion, challenge.config_digest,
                    challenge.epoch, hello.nonce);
  if (challenge.mac != expect_mac) {
    throw WorkerRejected(
        "worker: coordinator failed authentication (wrong scenario secret?)");
  }
  // The MAC binds the epoch, so a verified challenge is proof the claimed
  // epoch is genuine — adopt it (followers learn post-election epochs here).
  if (challenge.epoch != state.known_epoch) state.roster.clear();
  state.known_epoch = challenge.epoch;
  AuthMsg auth;
  auth.mac = handshake_mac(options_.secret, kProtocolVersion,
                           challenge.config_digest, challenge.epoch,
                           challenge.nonce);
  send(socket, MsgType::kAuth, encode_payload(auth));

  if (!recv_frame(socket, frame)) {
    throw Error("worker: coordinator hung up after the auth proof");
  }
  if (frame.type == MsgType::kShutdown) {
    log("campaign completed during our handshake, nothing to do");
    return SessionEnd::kShutdown;
  }
  if (frame.type == MsgType::kReconnect) {
    follow_redirect(frame);
    return SessionEnd::kRedirect;
  }
  if (frame.type == MsgType::kError) {
    util::ByteReader payload(frame.payload);
    throw WorkerRejected("worker: coordinator rejected us: " +
                         ErrorMsg::decode(payload).message);
  }
  if (frame.type != MsgType::kCampaign) {
    throw InvalidArgument("worker: expected the campaign message after auth");
  }
  util::ByteReader payload(frame.payload);
  const CampaignMsg campaign = CampaignMsg::decode(payload);
  if (campaign.config_digest != challenge.config_digest) {
    throw InvalidArgument(
        "worker: campaign digest differs from the challenged one");
  }
  state.spec = campaign.spec;  // kept verbatim for a possible self-promotion
  if (campaign.journal_id != state.journal_id) {
    // A new coordinator incarnation orders its journal differently — a
    // replica is only meaningful within the incarnation that streamed it.
    state.journal_id = campaign.journal_id;
    state.replica.clear();
    state.roster.clear();
  }

  // Rebuild the exact (model, config) the coordinator holds and prove it via
  // the digest — version skew, a different soft-error database, or any codec
  // bug fails here, before a single record is produced. Cached by digest: a
  // reconnect to the same campaign (or its standby) skips the rebuild.
  if (!state.prepared || state.digest != campaign.config_digest) {
    soc::SocModel model = build_model(campaign.spec);
    fi::CampaignConfig config = campaign.spec.config;
    config.threads = options_.threads;
    config.lanes = options_.lanes;
    const std::uint64_t digest = fi::campaign_config_digest(model, config);
    if (digest != campaign.config_digest) {
      const ErrorMsg err{"campaign configuration digest mismatch"};
      try {
        send_frame(socket, MsgType::kError, encode_payload(err));
      } catch (const Error&) {
      }
      throw InvalidArgument(
          "worker: campaign configuration digest mismatch (coordinator sent " +
          std::to_string(campaign.config_digest) + ", derived " +
          std::to_string(digest) + ")");
    }
    util::ByteReader bundle_reader(campaign.bundle);
    const fi::GoldenBundle bundle = fi::decode_golden_bundle(bundle_reader);
    fi::detail::CampaignPrep prep =
        fi::prepare_campaign_with_bundle(model, config, db_, bundle);
    if (prep.plan.size() != campaign.total_injections) {
      throw InvalidArgument("worker: derived plan size " +
                            std::to_string(prep.plan.size()) +
                            " does not match the coordinator's " +
                            std::to_string(campaign.total_injections));
    }
    log("campaign of %zu injections, %zu-rung ladder shipped (%zu bytes)",
        prep.plan.size(), prep.ladder.size(), campaign.bundle.size());
    state.model = std::move(model);
    state.config = config;
    state.records.assign(prep.plan.size(), {});
    state.prep = std::move(prep);
    state.digest = campaign.config_digest;
    state.prepared = true;
  } else {
    log("reconnected to campaign %llu, prep cache hit",
        static_cast<unsigned long long>(state.digest));
  }
  const fi::detail::CampaignPrep& prep = *state.prep;

  // Report how much of THIS incarnation's journal we already mirror; the
  // coordinator streams us the missing tail before any work.
  ReadyMsg ready{prep.plan.size(),
                 state.journal_id != 0
                     ? static_cast<std::uint64_t>(state.replica.size())
                     : 0};
  send(socket, MsgType::kReady, encode_payload(ready));
  if (peers_ != nullptr) peers_->set_serving(state.known_epoch, host, port);
  publish_candidacy(state);

  std::vector<std::size_t> owned;
  for (;;) {
    if (!recv_frame(socket, frame)) {
      throw Error("worker: coordinator hung up mid-campaign");
    }
    if (frame.type == MsgType::kJournalSync) {
      util::ByteReader sync_payload(frame.payload);
      JournalSyncMsg sync = JournalSyncMsg::decode(sync_payload);
      if (sync.journal_id != state.journal_id) continue;  // stale stream
      if (sync.seq < state.replica.size()) continue;      // duplicate
      if (sync.seq > state.replica.size()) {
        throw InvalidArgument("worker: journal sync gap (expected seq " +
                              std::to_string(state.replica.size()) +
                              ", got " + std::to_string(sync.seq) + ")");
      }
      // CRC + codec check before admission: the replica holds only entries
      // that would replay, so it is an intact prefix by construction.
      (void)decode_journal_entry(sync.entry);
      state.replica.push_back(std::move(sync.entry));
      publish_candidacy(state);
      continue;
    }
    if (frame.type == MsgType::kPeers) {
      util::ByteReader peers_payload(frame.payload);
      state.roster = PeersMsg::decode(peers_payload).peers;
      publish_candidacy(state);
      continue;
    }
    if (frame.type == MsgType::kShutdown) {
      log("shutdown after %llu records",
          static_cast<unsigned long long>(state.produced));
      return SessionEnd::kShutdown;
    }
    if (frame.type == MsgType::kReconnect) {
      follow_redirect(frame);
      return SessionEnd::kRedirect;
    }
    if (frame.type == MsgType::kError) {
      util::ByteReader err_payload(frame.payload);
      throw WorkerRejected("worker: coordinator error: " +
                           ErrorMsg::decode(err_payload).message);
    }
    if (frame.type != MsgType::kWork) {
      throw InvalidArgument("worker: unexpected message mid-campaign");
    }
    util::ByteReader work_payload(frame.payload);
    const WorkMsg work = WorkMsg::decode(work_payload);
    if (work.count == 0 || work.start + work.count > prep.plan.size()) {
      throw InvalidArgument("worker: work item outside the plan");
    }
    if (state.chunks_done >= options_.defect_after_chunks) {
      log("defecting on injections [%llu, %llu)",
          static_cast<unsigned long long>(work.start),
          static_cast<unsigned long long>(work.start + work.count));
      return SessionEnd::kBudget;  // vanish without replying: chunk is lost
    }

    owned.resize(static_cast<std::size_t>(work.count));
    std::iota(owned.begin(), owned.end(),
              static_cast<std::size_t>(work.start));
    util::Timer chunk_timer;
    fi::detail::execute_injections(*state.model, state.config, prep, owned,
                                   state.records);
    const double chunk_seconds = options_.chunk_seconds_override >= 0.0
                                     ? options_.chunk_seconds_override
                                     : chunk_timer.seconds();
    state.total_seconds += chunk_seconds;

    RecordsMsg reply;
    reply.start = work.start;
    reply.count = work.count;
    reply.records.reserve(owned.size());
    for (const std::size_t i : owned) {
      reply.records.push_back({i, state.records[i]});
    }
    const std::vector<std::uint8_t> records_payload = encode_payload(reply);
    send(socket, MsgType::kRecords, records_payload);
    state.produced += work.count;
    state.chunks_done += 1;
    state.progressed_this_session = true;

    HeartbeatMsg heartbeat;
    heartbeat.worker_id = options_.worker_id;
    heartbeat.chunks_done = state.chunks_done;
    heartbeat.records_produced = state.produced;
    heartbeat.last_chunk_seconds = chunk_seconds;
    heartbeat.total_seconds = state.total_seconds;
    heartbeat.last_records_digest = fnv1a(records_payload);
    if (options_.corrupt_heartbeat_digest) {
      heartbeat.last_records_digest ^= 1;
    }
    send(socket, MsgType::kHeartbeat, encode_payload(heartbeat));

    if (options_.max_chunks > 0 && state.chunks_done >= options_.max_chunks) {
      log("chunk budget reached, disconnecting cleanly");
      return SessionEnd::kBudget;
    }
  }
}

}  // namespace ssresf::net
