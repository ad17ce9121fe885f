#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>

#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "fi/record_store.h"
#include "fi/shard.h"
#include "net/auth.h"
#include "net/journal.h"
#include "util/error.h"
#include "util/timer.h"

namespace ssresf::net {

namespace {

using Clock = std::chrono::steady_clock;

enum class ConnState { kAwaitHello, kAwaitAuth, kAwaitReady, kIdle, kWorking };

struct Conn {
  util::Socket socket;
  ConnState state = ConnState::kAwaitHello;
  WorkMsg chunk;  // valid when state == kWorking
  Clock::time_point deadline;
  int id = 0;                  // stable id for log lines
  std::uint64_t pid = 0;       // worker-reported, logs only
  std::uint64_t worker_id = 0; // worker-reported stable identity
  std::uint64_t nonce = 0;     // our challenge, awaiting the kAuth proof
  std::uint64_t last_records_digest = 0;  // fnv of the last accepted batch
  std::uint16_t peer_port = 0;  // worker's election listener (0 = none)
  std::string peer_host;        // worker-advertised host ("" = use the socket's)
  /// Journal entries this worker's replica holds; kept equal to the mirror
  /// size by the tail sync at kReady and the per-append broadcast.
  std::uint64_t replica_entries = 0;
};

/// Graceful sender-side close: consume inbound bytes until the peer reads
/// our half-close FIN plus final frames and closes (or the deadline passes).
/// The caller must shutdown_write() first. Closing a socket with unread
/// inbound data (a worker's in-flight records) makes the kernel send RST,
/// which destroys frames the peer has buffered but not yet read — the
/// kReconnect redirect or final kShutdown would silently vanish.
void drain_to_eof(util::Socket& socket, Clock::time_point deadline) {
  std::uint8_t sink[4096];
  try {
    while (Clock::now() < deadline) {
      if (!socket.wait_readable(100)) continue;
      if (socket.recv_some(sink, sizeof(sink)) == 0) break;
    }
  } catch (const Error&) {
    // The peer reset first; nothing left to preserve.
  }
}

}  // namespace

Coordinator::Coordinator(const CampaignSpec& spec,
                         const radiation::SoftErrorDatabase& database,
                         CoordinatorOptions options)
    : spec_(spec),
      db_(database),
      options_(std::move(options)),
      model_(build_model(spec)),
      listener_(options_.port, options_.loopback_only),
      monitor_(options_.health) {
  if (options_.worker_timeout_seconds <= 0.0) {
    throw InvalidArgument("coordinator: worker timeout must be positive, got " +
                          std::to_string(options_.worker_timeout_seconds));
  }
  if (options_.frame_deadline_seconds <= 0.0) {
    throw InvalidArgument("coordinator: frame deadline must be positive, got " +
                          std::to_string(options_.frame_deadline_seconds));
  }
  if (options_.handoff_after_frames > 0 && options_.journal_path.empty()) {
    throw InvalidArgument(
        "coordinator: a handoff without a journal would strand the "
        "campaign's progress — set journal_path");
  }
}

fi::CampaignResult Coordinator::run() {
  fi::CampaignResult result;
  (void)run_impl(nullptr, &result);
  return result;
}

fi::CampaignStats Coordinator::run(fi::RecordSink& sink) {
  return run_impl(&sink, nullptr);
}

fi::CampaignStats Coordinator::run_impl(fi::RecordSink* user_sink,
                                        fi::CampaignResult* vector_out) {
  const fi::CampaignConfig& config = spec_.config;
  const auto log = [&](const char* fmt, auto... args) {
    if (options_.verbose) {
      std::fprintf(stderr, "coordinator: ");
      std::fprintf(stderr, fmt, args...);
      std::fputc('\n', stderr);
    }
  };

  util::Timer timer;
  // One golden pass for the whole fleet: the prep's trace and ladder are
  // encoded once and the identical campaign frame is replayed to every
  // worker that ever connects.
  fi::detail::CampaignPrep prep =
      fi::detail::prepare_campaign(model_, config, db_, /*for_execution=*/true);
  const std::uint64_t plan_size = prep.plan.size();
  const std::uint64_t digest = fi::campaign_config_digest(model_, config);

  CampaignMsg campaign;
  campaign.spec = spec_;
  campaign.config_digest = digest;
  campaign.total_injections = plan_size;
  {
    util::ByteWriter bundle_bytes;
    fi::encode_golden_bundle(bundle_bytes,
                             fi::extract_golden_bundle(model_, config, prep));
    campaign.bundle = bundle_bytes.take();
  }
  log("serving %llu injections on port %u (golden bundle %zu bytes)",
      static_cast<unsigned long long>(plan_size),
      static_cast<unsigned>(listener_.port()), campaign.bundle.size());

  // The streaming record flow: instead of a plan-sized record vector, the
  // coordinator keeps a seen bit plus an 8-byte record digest per injection
  // (for the cross-worker determinism check) and hands accepted batches
  // straight to the sinks — the caller's RecordSink plus the streaming
  // aggregator that computes the final statistics. The legacy run() wraps
  // this with a VectorSink.
  std::optional<fi::VectorSink> collect;
  if (vector_out != nullptr) collect.emplace(plan_size);
  std::vector<fi::RecordSink*> outs;
  if (user_sink != nullptr) outs.push_back(user_sink);
  if (collect) outs.push_back(&*collect);
  fi::TeeSink tee(std::move(outs));
  {
    fi::ShardFileMeta stream_meta;
    stream_meta.seed = config.seed;
    stream_meta.shard_index = 0;
    stream_meta.shard_count = 1;
    stream_meta.total_injections = plan_size;
    stream_meta.config_digest = digest;
    stream_meta.num_records = plan_size;
    tee.begin(stream_meta);
  }
  fi::CampaignAggregator aggregator(model_, config, db_, prep);

  std::vector<std::uint8_t> seen(plan_size, 0);
  std::vector<std::uint64_t> record_digests(plan_size, 0);
  std::uint64_t filled = 0;

  // Digest of one record's canonical encoding (index included): the stand-in
  // for the old stored-record equality in the duplicate-determinism check.
  // An FNV collision could mask a violation, but at 2^-64 per duplicate that
  // is far below any hardware-error floor — and the check is a tripwire for
  // bugs, not a correctness dependency of the merge itself.
  const auto record_digest = [](const fi::ShardRecord& r) {
    util::ByteWriter w;
    fi::encode_records(w, std::span<const fi::ShardRecord>(&r, 1));
    return fnv1a(w.data());
  };

  fi::RecordBatch accepted;
  const auto fill_records = [&](const RecordsMsg& msg) {
    accepted.clear();
    for (const fi::ShardRecord& r : msg.records) {
      if (r.index < msg.start || r.index >= msg.start + msg.count) {
        throw InvalidArgument("record index outside its chunk");
      }
      const fi::detail::PlannedInjection& planned =
          prep.plan[static_cast<std::size_t>(r.index)];
      if (r.record.cluster != planned.cluster ||
          r.record.module_class != model_.netlist.cell_class(planned.cell)) {
        throw InvalidArgument("record contradicts the campaign plan");
      }
      const auto i = static_cast<std::size_t>(r.index);
      if (seen[i] != 0) {
        // Duplicates can only be re-runs of a reassigned chunk; determinism
        // says they must agree. A conflict means a worker (or this process)
        // simulated wrongly — never paper over that.
        if (record_digests[i] != record_digest(r)) {
          throw InternalError(
              "duplicate record for injection " + std::to_string(r.index) +
              " differs between workers — determinism violation");
        }
        continue;
      }
      seen[i] = 1;
      record_digests[i] = record_digest(r);
      accepted.push_back(r);
      ++filled;
    }
    // One append per accepted frame, in arrival order: record frames are
    // ascending within a chunk, so the batch honors the sink contract.
    if (!accepted.empty()) {
      aggregator.append(accepted);
      tee.append(accepted);
    }
  };

  // Dispatch journal: replay what a previous incarnation already collected,
  // then append every batch we accept ourselves. Everything replayed goes
  // through the same plan cross-checks as live traffic — a corrupt or
  // foreign journal fails here, not in the merged result.
  //
  // `mirror` shadows the on-disk journal entry-for-entry as raw frame bytes:
  // it is what the kJournalSync replication streams to the fleet, so every
  // worker's replica is byte-identical to a prefix of this journal. Replayed
  // entries are re-encoded through the same codec, which reproduces the
  // exact on-disk bytes.
  std::optional<JournalWriter> journal;
  std::vector<std::vector<std::uint8_t>> mirror;
  if (!options_.journal_path.empty()) {
    if (std::filesystem::exists(options_.journal_path)) {
      const JournalContents contents =
          read_journal(options_.journal_path, digest, /*strict=*/false);
      if (contents.total_injections != plan_size) {
        throw InvalidArgument(
            "journal '" + options_.journal_path + "': records " +
            std::to_string(contents.total_injections) +
            " total injections, campaign plans " + std::to_string(plan_size));
      }
      for (const JournalEntry& entry : contents.entries) {
        RecordsMsg msg;
        msg.start = entry.start;
        msg.count = entry.records.size();
        msg.records = entry.records;
        fill_records(msg);
        mirror.push_back(encode_journal_entry(entry.start, entry.records));
      }
      journal.emplace(
          JournalWriter::resume(options_.journal_path, contents));
      log("resumed journal '%s': %llu of %llu injections already done",
          options_.journal_path.c_str(),
          static_cast<unsigned long long>(filled),
          static_cast<unsigned long long>(plan_size));
    } else {
      journal.emplace(options_.journal_path, digest, plan_size);
    }
  }
  // Fresh identity per incarnation: entry order can differ between
  // incarnations (reassignment reorders batches), so a replica mirrored from
  // a previous coordinator is NOT a prefix of this journal — workers see a
  // new id and re-sync from entry zero.
  campaign.journal_id = journal ? fresh_nonce() : 0;
  const std::vector<std::uint8_t> campaign_payload = encode_payload(campaign);

  // The work queue: contiguous chunks over the UNFILLED indices only
  // (everything on a fresh start), reassigned-first at the front.
  const std::uint64_t chunk_size =
      options_.chunk_injections > 0
          ? options_.chunk_injections
          : std::max<std::uint64_t>(1, plan_size / 64);
  std::deque<WorkMsg> queue;
  const auto queue_run = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t start = begin; start < end; start += chunk_size) {
      queue.push_back({start, std::min(chunk_size, end - start)});
    }
  };
  {
    std::uint64_t run_start = 0;
    bool in_run = false;
    for (std::uint64_t i = 0; i < plan_size; ++i) {
      if (seen[i] == 0) {
        if (!in_run) {
          run_start = i;
          in_run = true;
        }
      } else if (in_run) {
        queue_run(run_start, i);
        in_run = false;
      }
    }
    if (in_run) queue_run(run_start, plan_size);
  }

  std::vector<Conn> conns;
  int next_conn_id = 0;
  std::uint64_t frames_seen = 0;
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.worker_timeout_seconds));

  // Drops conns[k]: its outstanding chunk goes back to the FRONT of the
  // queue so a lost chunk is the next thing dispatched — a killed worker
  // delays the campaign by at most one chunk's simulation time.
  const auto drop = [&](std::size_t k, const char* why) {
    Conn& c = conns[k];
    log("worker #%d (pid %llu) dropped: %s", c.id,
        static_cast<unsigned long long>(c.pid), why);
    // A dead worker must not count toward the monitor's last-healthy guard.
    if (c.worker_id != 0) monitor_.on_disconnect(c.worker_id);
    if (c.state == ConnState::kWorking) {
      log("reassigning injections [%llu, %llu)",
          static_cast<unsigned long long>(c.chunk.start),
          static_cast<unsigned long long>(c.chunk.start + c.chunk.count));
      queue.push_front(c.chunk);
    }
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(k));
  };

  // Sends kError (best effort) and drops — the refusal paths: failed auth,
  // quarantined worker, mid-campaign quarantine.
  const auto refuse = [&](std::size_t k, const std::string& message) {
    const ErrorMsg err{message};
    try {
      send_frame(conns[k].socket, MsgType::kError, encode_payload(err));
    } catch (const Error&) {
    }
    drop(k, message.c_str());
  };

  // Election roster: every admitted worker that announced a peer port, by
  // stable worker id. Additive — a disconnected worker's peer service keeps
  // running, so it stays electable; an unreachable one is simply skipped
  // during an election round.
  std::vector<PeerEntry> roster;
  const auto broadcast_roster = [&] {
    if (options_.death != nullptr) options_.death->on_roster(roster.size());
    const std::vector<std::uint8_t> payload =
        encode_payload(PeersMsg{roster});
    for (Conn& c : conns) {
      if (c.state != ConnState::kIdle && c.state != ConnState::kWorking) {
        continue;
      }
      try {
        send_frame(c.socket, MsgType::kPeers, payload);
      } catch (const Error&) {
        // A dead socket is reaped by its own receive path.
      }
    }
  };

  // Live journal replication: after an entry is on OUR disk, stream it to
  // every in-sync worker. Failures are deliberately not fatal here — the
  // worker's receive path reaps dead sockets, and its stale replica just
  // costs it candidacy weight in a future election, never correctness.
  const auto broadcast_entry = [&] {
    const std::uint64_t seq = mirror.size() - 1;
    JournalSyncMsg sync;
    sync.journal_id = campaign.journal_id;
    sync.seq = seq;
    sync.entry = mirror.back();
    const std::vector<std::uint8_t> payload = encode_payload(sync);
    for (Conn& c : conns) {
      if (c.state != ConnState::kIdle && c.state != ConnState::kWorking) {
        continue;
      }
      if (c.replica_entries != seq) continue;  // fell out of step: stale
      try {
        send_frame(c.socket, MsgType::kJournalSync, payload);
        c.replica_entries = seq + 1;
      } catch (const Error&) {
      }
    }
  };

  while (filled < plan_size) {
    // Dispatch to every idle worker (reassigned chunks first).
    for (std::size_t k = 0; k < conns.size();) {
      if (conns[k].state != ConnState::kIdle || queue.empty()) {
        ++k;
        continue;
      }
      Conn& c = conns[k];
      c.chunk = queue.front();
      try {
        send_frame(c.socket, MsgType::kWork, encode_payload(c.chunk));
      } catch (const Error&) {
        drop(k, "send failed");
        continue;
      }
      queue.pop_front();
      c.state = ConnState::kWorking;
      c.deadline = Clock::now() + timeout;
      ++k;
    }

    // Poll the listener and every connection; wake at the nearest deadline
    // so silent workers are reaped even when no fd stirs. Idle workers have
    // no deadline — a worker waiting out an empty queue is healthy, only
    // stalled handshakes and stalled chunks are reapable.
    std::vector<int> fds;
    fds.reserve(conns.size() + 1);
    fds.push_back(listener_.fd());
    for (const Conn& c : conns) fds.push_back(c.socket.fd());
    int poll_ms = -1;
    for (const Conn& c : conns) {
      if (c.state == ConnState::kIdle) continue;
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          c.deadline - Clock::now());
      const int ms =
          static_cast<int>(std::clamp<long long>(wait.count(), 0, 60000));
      poll_ms = poll_ms < 0 ? ms : std::min(poll_ms, ms);
    }
    const std::vector<bool> ready = util::poll_readable(fds, poll_ms);

    if (ready[0]) {
      Conn c;
      c.socket = listener_.accept();
      c.state = ConnState::kAwaitHello;
      c.deadline = Clock::now() + timeout;
      c.id = next_conn_id++;
      log("worker #%d connected", c.id);
      conns.push_back(std::move(c));
      // The new conn was not polled this round; it is served next iteration.
    }

    // `ready` indexes the pre-accept fd list: entry ri corresponds to the
    // ri-1'th conn of that snapshot (a just-accepted conn is past the polled
    // range and waits a round). `k` tracks the same conn through erasures:
    // a drop shifts conns left, so k must NOT advance after one.
    std::size_t k = 0;
    for (std::size_t ri = 1; ri < ready.size() && k < conns.size(); ++ri) {
      if (!ready[ri]) {
        ++k;
        continue;
      }
      Conn& c = conns[k];
      Frame frame;
      bool ok = false;
      try {
        // The fd is readable, so the frame has started: the deadline-bounded
        // read is the slow-loris guard — a peer trickling bytes can stall
        // this loop for at most one frame deadline.
        ok = recv_frame_deadline(c.socket, frame,
                                 options_.frame_deadline_seconds);
      } catch (const Error& e) {
        drop(k, e.what());
        continue;
      }
      if (!ok) {
        drop(k, "disconnected");
        continue;
      }
      ++frames_seen;
      if (options_.death != nullptr && options_.death->on_frame()) {
        // SIGKILL semantics: this incarnation just stops existing. Abrupt
        // close on every socket (the kernel of a killed process does the
        // same), no redirect, no shutdown frames, no drain — recovery is
        // entirely the fleet's problem. The journal keeps whatever was
        // fsynced; in-flight batches die with us and must be re-queued by
        // whoever takes over.
        conns.clear();
        listener_.close();
        throw CoordinatorKilled(
            "coordinator: chaos schedule killed this incarnation after " +
            std::to_string(frames_seen) + " frames; journal '" +
            options_.journal_path + "' holds " + std::to_string(filled) +
            " of " + std::to_string(plan_size) + " injections");
      }
      c.deadline = Clock::now() + timeout;
      try {
        util::ByteReader payload(frame.payload);
        switch (frame.type) {
          case MsgType::kHello: {
            if (c.state != ConnState::kAwaitHello) {
              // A repeated handshake must not reset a working conn's state —
              // that would leak its outstanding chunk past drop()'s requeue.
              throw InvalidArgument("unexpected repeated hello");
            }
            const HelloMsg hello = HelloMsg::decode(payload);
            c.pid = hello.pid;
            c.worker_id = hello.worker_id;
            c.peer_port = hello.peer_port;
            c.peer_host = hello.peer_host;
            const bool was_quarantined = monitor_.quarantined(hello.worker_id);
            if (!monitor_.on_connect(hello.worker_id)) {
              const auto& health = monitor_.workers().at(hello.worker_id);
              refuse(k, "worker " + std::to_string(hello.worker_id) +
                            " is quarantined (" + to_string(health.reason) +
                            ")");
              continue;
            }
            if (was_quarantined) {
              log("worker %llu paroled: no healthy workers left",
                  static_cast<unsigned long long>(hello.worker_id));
            }
            // Challenge-response before any campaign data: we prove
            // ourselves over the worker's nonce, it must prove itself over
            // ours. The digest is the only thing an unauthenticated peer
            // ever learns.
            c.nonce = fresh_nonce();
            ChallengeMsg challenge;
            challenge.nonce = c.nonce;
            challenge.config_digest = digest;
            challenge.epoch = options_.epoch;
            challenge.mac = handshake_mac(options_.secret, kProtocolVersion,
                                          digest, options_.epoch, hello.nonce);
            send_frame(c.socket, MsgType::kChallenge,
                       encode_payload(challenge));
            c.state = ConnState::kAwaitAuth;
            break;
          }
          case MsgType::kAuth: {
            if (c.state != ConnState::kAwaitAuth) {
              throw InvalidArgument("unexpected auth message");
            }
            const AuthMsg auth = AuthMsg::decode(payload);
            const std::uint64_t expect =
                handshake_mac(options_.secret, kProtocolVersion, digest,
                              options_.epoch, c.nonce);
            if (auth.mac != expect) {
              refuse(k, "worker authentication failed "
                        "(wrong scenario secret?)");
              continue;
            }
            send_frame(c.socket, MsgType::kCampaign, campaign_payload);
            c.state = ConnState::kAwaitReady;
            break;
          }
          case MsgType::kReady: {
            if (c.state != ConnState::kAwaitReady) {
              throw InvalidArgument("unexpected ready message");
            }
            const ReadyMsg ready_msg = ReadyMsg::decode(payload);
            if (ready_msg.plan_size != plan_size) {
              throw InvalidArgument("worker derived a different plan size");
            }
            if (ready_msg.replica_entries > mirror.size()) {
              throw InvalidArgument(
                  "worker claims a journal replica longer than the journal");
            }
            c.replica_entries = ready_msg.replica_entries;
            c.state = ConnState::kIdle;
            // Catch the replica up before any work: a reconnecting worker
            // holds a prefix from this incarnation and needs only the tail;
            // a fresh worker streams from entry zero.
            if (journal) {
              JournalSyncMsg sync;
              sync.journal_id = campaign.journal_id;
              for (std::uint64_t s = c.replica_entries; s < mirror.size();
                   ++s) {
                sync.seq = s;
                sync.entry = mirror[static_cast<std::size_t>(s)];
                send_frame(c.socket, MsgType::kJournalSync,
                           encode_payload(sync));
              }
              c.replica_entries = mirror.size();
            }
            // Roster bookkeeping: an election-capable worker (it announced a
            // peer port, and we can name its host) becomes visible to the
            // whole fleet.
            if (c.peer_port != 0) {
              // An advertised host (--advertise-addr) wins over the address
              // the hello connection came from: behind NAT the two differ,
              // and only the advertised one is dialable by peers.
              const std::string host = !c.peer_host.empty()
                                           ? c.peer_host
                                           : c.socket.peer_host();
              if (!host.empty()) {
                const PeerEntry entry{c.worker_id, host, c.peer_port};
                const auto it = std::find_if(
                    roster.begin(), roster.end(), [&](const PeerEntry& p) {
                      return p.worker_id == c.worker_id;
                    });
                if (it == roster.end()) {
                  roster.push_back(entry);
                  broadcast_roster();
                } else if (it->host != entry.host ||
                           it->peer_port != entry.peer_port) {
                  *it = entry;
                  broadcast_roster();
                } else {
                  // Unchanged roster; still (re)send it to the newcomer,
                  // whose session state was reset by the reconnect.
                  try {
                    send_frame(c.socket, MsgType::kPeers,
                               encode_payload(PeersMsg{roster}));
                  } catch (const Error&) {
                  }
                }
              }
            }
            log("worker #%d (pid %llu, id %llu) ready (replica %llu/%zu)",
                c.id, static_cast<unsigned long long>(c.pid),
                static_cast<unsigned long long>(c.worker_id),
                static_cast<unsigned long long>(c.replica_entries),
                mirror.size());
            break;
          }
          case MsgType::kRecords: {
            if (c.state != ConnState::kWorking) {
              throw InvalidArgument("records from a worker without work");
            }
            const RecordsMsg msg = RecordsMsg::decode(payload);
            if (msg.start != c.chunk.start || msg.count != c.chunk.count) {
              throw InvalidArgument("records do not match the assigned chunk");
            }
            fill_records(msg);
            // Journal BEFORE acknowledging by dispatching more work: after a
            // crash, anything we acted on is guaranteed on disk. Then mirror
            // the entry to the fleet — local flush first, replicate second,
            // so no replica ever runs ahead of our own stable storage.
            if (journal) {
              journal->append(msg.start, msg.records);
              mirror.push_back(encode_journal_entry(msg.start, msg.records));
              broadcast_entry();
            }
            c.last_records_digest = fnv1a(frame.payload);
            c.state = ConnState::kIdle;
            break;
          }
          case MsgType::kHeartbeat: {
            const HeartbeatMsg heartbeat = HeartbeatMsg::decode(payload);
            if (heartbeat.worker_id != c.worker_id) {
              throw InvalidArgument("heartbeat for a different worker");
            }
            const QuarantineReason reason =
                monitor_.on_heartbeat(heartbeat, c.last_records_digest);
            if (reason != QuarantineReason::kNone) {
              refuse(k, "worker " + std::to_string(c.worker_id) +
                            " quarantined (" + to_string(reason) + ")");
              continue;
            }
            break;  // telemetry only; no state change
          }
          case MsgType::kError: {
            const ErrorMsg err = ErrorMsg::decode(payload);
            drop(k, err.message.c_str());
            continue;
          }
          default:
            throw InvalidArgument("unexpected message type");
        }
      } catch (const InternalError&) {
        throw;  // determinism violations abort the campaign
      } catch (const Error& e) {
        drop(k, e.what());
        continue;
      }
      ++k;
    }

    // Reap workers that have been silent past the timeout (idle workers are
    // exempt: with an empty queue there is nothing they could be sending).
    const auto now = Clock::now();
    for (std::size_t k2 = 0; k2 < conns.size();) {
      if (conns[k2].state != ConnState::kIdle && conns[k2].deadline <= now) {
        drop(k2, "timed out");
      } else {
        ++k2;
      }
    }

    // Failover hook: redirect the fleet to the standby and stop. The journal
    // (flushed on every accepted batch) is the baton.
    if (options_.handoff_after_frames > 0 &&
        frames_seen >= options_.handoff_after_frames && filled < plan_size) {
      ReconnectMsg redirect;
      redirect.host = options_.handoff_host;
      redirect.port = options_.handoff_port;
      const std::vector<std::uint8_t> redirect_payload =
          encode_payload(redirect);
      for (Conn& c : conns) {
        try {
          send_frame(c.socket, MsgType::kReconnect, redirect_payload);
          // Half-close, then drain below. Closing outright while a worker is
          // mid-send (records from its current chunk) would RST the
          // connection, and the RST destroys the kReconnect the worker has
          // buffered but not yet read — it would then retry the dead primary
          // instead of following the redirect.
          c.socket.shutdown_write();
        } catch (const Error&) {
          // A worker we cannot redirect will find the standby via its own
          // reconnect path (or die trying); the journal keeps its records.
        }
      }
      // Drain every connection to EOF so no RST is ever generated. Bytes
      // read here (in-flight record frames) are deliberately discarded, not
      // journaled: the standby re-queues those chunks and the campaign's
      // determinism plus the duplicate-record check keep the merge exact.
      const auto drain_deadline = Clock::now() + timeout;
      for (Conn& c : conns) drain_to_eof(c.socket, drain_deadline);
      conns.clear();
      // Stop listening too: a worker that missed the redirect must get
      // connection-refused from this dead incarnation, not a handshake
      // that never comes out of an unserved accept backlog.
      listener_.close();
      throw CoordinatorHandoff(
          "coordinator: handed off after " + std::to_string(frames_seen) +
          " frames; journal '" + options_.journal_path + "' holds " +
          std::to_string(filled) + " of " + std::to_string(plan_size) +
          " injections");
    }
  }

  log("all %llu injections filled, shutting workers down",
      static_cast<unsigned long long>(filled));
  for (Conn& c : conns) {
    try {
      send_frame(c.socket, MsgType::kShutdown, {});
      c.socket.shutdown_write();
    } catch (const Error&) {
      // A worker that died between its last records and shutdown is fine.
    }
  }
  // A worker that connected just as the last record landed is sitting in
  // the accept backlog waiting for a handshake that will never start —
  // accept it, tell it the campaign is over, and stop listening so any
  // later connect is refused outright instead of queueing forever.
  try {
    while (util::poll_readable({listener_.fd()}, 0)[0]) {
      Conn late;
      late.socket = listener_.accept();
      log("late worker connected after completion, sending shutdown");
      try {
        send_frame(late.socket, MsgType::kShutdown, {});
        late.socket.shutdown_write();
      } catch (const Error&) {
      }
      conns.push_back(std::move(late));
    }
  } catch (const Error&) {
    // A raced accept is fine; the listener closes either way.
  }
  listener_.close();
  const auto drain_deadline = Clock::now() + timeout;
  for (Conn& c : conns) drain_to_eof(c.socket, drain_deadline);
  conns.clear();

  const double seconds = timer.seconds();
  tee.flush();
  fi::CampaignStats stats = aggregator.finalize();
  stats.simulation_seconds = seconds;
  if (vector_out != nullptr) {
    // Reassemble the legacy CampaignResult: the records come from the
    // collecting sink, the statistics from the aggregator — which runs the
    // same stats kernel finalize_campaign does, so every double matches the
    // old in-place aggregation bit for bit.
    vector_out->records = collect->take_records();
    vector_out->clustering = std::move(prep.clustering);
    vector_out->clusters = stats.clusters;
    vector_out->per_class = stats.per_class;
    vector_out->chip_ser_percent = stats.chip_ser_percent;
    vector_out->set_xsect_cm2 = stats.set_xsect_cm2;
    vector_out->seu_xsect_cm2 = stats.seu_xsect_cm2;
    vector_out->golden_cycles = stats.golden_cycles;
    vector_out->clock_period_ps = stats.clock_period_ps;
    vector_out->simulation_seconds = seconds;
  }
  return stats;
}

}  // namespace ssresf::net
