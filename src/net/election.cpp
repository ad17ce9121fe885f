#include "net/election.h"

#include <algorithm>

#include "util/error.h"

namespace ssresf::net {

PeerService::PeerService(std::uint64_t worker_id, std::uint16_t port,
                         bool loopback_only)
    : listener_(port, loopback_only) {
  info_.worker_id = worker_id;
  info_.phase = PeerPhase::kLost;  // no session yet
  thread_ = std::thread([this] { serve_loop(); });
}

PeerService::~PeerService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  if (thread_.joinable()) thread_.join();
}

void PeerService::set_serving(std::uint64_t epoch,
                              const std::string& coordinator_host,
                              std::uint16_t coordinator_port) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // A promoted worker sessions against ITSELF (127.0.0.1) — that endpoint
  // is useless to remote peers, and kPromoted outranks kServing anyway.
  if (info_.phase == PeerPhase::kPromoted) return;
  info_.phase = PeerPhase::kServing;
  info_.epoch = epoch;
  info_.coordinator_host = coordinator_host;
  info_.coordinator_port = coordinator_port;
}

void PeerService::set_lost() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (info_.phase == PeerPhase::kPromoted) return;  // we ARE the coordinator
  info_.phase = PeerPhase::kLost;
  info_.coordinator_host.clear();
  info_.coordinator_port = 0;
}

void PeerService::set_electing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (info_.phase == PeerPhase::kPromoted) return;
  info_.phase = PeerPhase::kElecting;
}

void PeerService::set_promoted(std::uint64_t epoch,
                               std::uint16_t coordinator_port) {
  const std::lock_guard<std::mutex> lock(mutex_);
  info_.phase = PeerPhase::kPromoted;
  info_.epoch = epoch;
  info_.coordinator_host.clear();  // "" = the host you reached me at
  info_.coordinator_port = coordinator_port;
}

void PeerService::set_candidacy(bool candidate, std::uint64_t replica_entries,
                                std::uint64_t roster_size) {
  const std::lock_guard<std::mutex> lock(mutex_);
  info_.candidate = candidate;
  info_.replica_entries = replica_entries;
  info_.roster_size = roster_size;
}

PeerInfoMsg PeerService::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return info_;
}

void PeerService::serve_loop() {
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    try {
      // Short poll so a stop request is honored within ~100ms; the cost is
      // one poll syscall per tick, only while the worker process is alive.
      if (!util::poll_readable({listener_.fd()}, 100)[0]) continue;
      util::Socket conn = listener_.accept();
      Frame frame;
      // A peer that connects and stalls must not pin the service (it would
      // be deaf to the whole fleet): bounded wait for the query to start,
      // bounded read once it has, then move on.
      if (!conn.wait_readable(5000)) continue;
      if (!recv_frame_deadline(conn, frame, 5.0)) continue;
      if (frame.type != MsgType::kPeerQuery) continue;
      send_frame(conn, MsgType::kPeerInfo, encode_payload(snapshot()));
      // We read the query and the peer sends nothing more, so close() emits
      // FIN, not RST — the reply always survives.
    } catch (const Error&) {
      // A dropped querier hurts only itself; keep serving.
    }
  }
}

std::optional<PeerInfoMsg> query_peer(const std::string& host,
                                      std::uint16_t port,
                                      std::uint64_t asking_worker_id,
                                      double timeout_seconds) {
  try {
    util::Socket socket = util::connect_to(host, port, timeout_seconds);
    PeerQueryMsg query;
    query.worker_id = asking_worker_id;
    send_frame(socket, MsgType::kPeerQuery, encode_payload(query));
    Frame frame;
    if (!recv_frame_deadline(socket, frame, timeout_seconds)) {
      return std::nullopt;
    }
    if (frame.type != MsgType::kPeerInfo) return std::nullopt;
    util::ByteReader payload(frame.payload);
    return PeerInfoMsg::decode(payload);
  } catch (const Error&) {
    return std::nullopt;  // unreachable peer = not a candidate this round
  }
}

std::optional<std::uint64_t> election_winner(
    std::uint64_t self_id, bool self_candidate, std::uint64_t epoch,
    const std::vector<PeerEntry>& roster,
    const std::vector<std::optional<PeerInfoMsg>>& replies) {
  if (replies.size() != roster.size()) {
    throw InvalidArgument("election_winner: one reply slot per roster entry");
  }
  const auto stands = [&](std::size_t i) {
    if (roster[i].worker_id == self_id) return self_candidate;
    return replies[i].has_value() && replies[i]->epoch == epoch &&
           replies[i]->candidate;
  };
  // The agreed prefix: the shortest roster any candidate was judged
  // against. Only candidates matter, and each is listed in its own roster.
  std::size_t agreed = roster.size();
  bool any = false;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (!stands(i)) continue;
    any = true;
    if (roster[i].worker_id != self_id) {
      agreed = std::min<std::size_t>(agreed, replies[i]->roster_size);
    }
  }
  if (!any) return std::nullopt;
  std::optional<std::uint64_t> winner;
  for (std::size_t i = 0; i < agreed; ++i) {
    if (stands(i) && (!winner.has_value() || roster[i].worker_id < *winner)) {
      winner = roster[i].worker_id;
    }
  }
  return winner;
}

}  // namespace ssresf::net
