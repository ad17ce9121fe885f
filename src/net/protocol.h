#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fi/campaign.h"
#include "fi/shard.h"
#include "soc/soc.h"
#include "util/bytes.h"
#include "util/socket.h"

namespace ssresf::net {

/// Wire protocol of the socket campaign transport. One frame per message:
///
///   "SSNP" | version u8 | type u8 | payload length u32 LE |
///   FNV-1a(payload) u64 LE | payload
///
/// Every frame is digest-checked on receipt, so a truncated, corrupted, or
/// version-skewed stream fails loudly instead of decoding into a silently
/// wrong campaign. Payloads reuse the util/bytes.h LEB128 codecs, the
/// fi/shard.h record codec, and the fi/golden_bundle.h golden-work codec —
/// the same byte formats the .ssfs / .ssgb files use on disk.
///
/// Version 2 added the authenticated hello/challenge handshake (net/auth.h),
/// worker heartbeat telemetry, and coordinator-failover redirects.
///
/// Version 3 added self-healing failover: live journal replication
/// (kJournalSync), the peer roster (kPeers) + peer query protocol
/// (kPeerQuery/kPeerInfo) behind automatic coordinator election, the
/// election epoch in the challenge (and bound into the handshake MAC — the
/// split-brain guard), and the worker's replica length in kReady.
///
/// Version 4 added the model-serving frames (kPredictRequest /
/// kPredictResponse — batched classification against a warm .ssmd bundle,
/// see serve/predict_server.h) and the worker's advertised peer host in
/// kHello (multi-host fleets behind NAT report the address peers should
/// dial instead of whatever the accept() socket saw).
inline constexpr std::uint8_t kProtocolVersion = 5;

/// Frames over 1 GiB are rejected before allocation: no golden bundle or
/// record batch comes close, so a larger length is a corrupt or hostile
/// header.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class MsgType : std::uint8_t {
  kHello = 0,      // worker -> coordinator: ids + threads + worker nonce
  kCampaign = 1,   // coordinator -> worker: spec + digest + golden bundle
  kReady = 2,      // worker -> coordinator: plan derived, plan size echoed
  kWork = 3,       // coordinator -> worker: one chunk of global indices
  kRecords = 4,    // worker -> coordinator: the chunk's records
  kShutdown = 5,   // coordinator -> worker: campaign complete, disconnect
  kError = 6,      // either direction: fatal condition, human-readable
  kChallenge = 7,  // coordinator -> worker: nonce + digest + its own proof
  kAuth = 8,       // worker -> coordinator: proof over the challenge nonce
  kHeartbeat = 9,  // worker -> coordinator: telemetry after each chunk
  kReconnect = 10, // coordinator -> worker: campaign continues at host:port
  kJournalSync = 11,  // coordinator -> worker: one replicated journal entry
  kPeers = 12,        // coordinator -> worker: the fleet roster (peer ports)
  kPeerQuery = 13,    // worker -> worker: election probe on the peer port
  kPeerInfo = 14,     // worker -> worker: candidacy/leadership answer
  kPredictRequest = 15,   // client -> model server: one batch of feature rows
  kPredictResponse = 16,  // model server -> client: one label per row
};

inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kPredictResponse);

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> data);

[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, std::span<const std::uint8_t> payload);

void send_frame(util::Socket& socket, MsgType type,
                std::span<const std::uint8_t> payload);

/// Blocking read of one frame. Returns false on a clean end-of-stream before
/// the first header byte (the peer hung up between messages). Throws
/// InvalidArgument on bad magic/version/type, an oversized length, or a
/// payload digest mismatch; util Error on a mid-frame disconnect.
[[nodiscard]] bool recv_frame(util::Socket& socket, Frame& out);

/// recv_frame with a per-frame receive deadline: waiting for a frame to
/// *start* still blocks forever (an idle peer is healthy), but once the
/// first byte has arrived the rest of the frame must land within
/// `deadline_seconds`, or an Error("frame receive deadline...") is thrown.
/// This is the slow-loris guard: a stalled or byte-trickling peer can cost
/// the coordinator's poll loop at most one deadline, never hang it.
[[nodiscard]] bool recv_frame_deadline(util::Socket& socket, Frame& out,
                                       double deadline_seconds);

/// Campaign-defining parameters, sufficient to reconstruct the identical
/// (model, config) pair on any host: the workload/SoC shape plus the full
/// CampaignConfig. Execution knobs (threads, checkpoint/exit flags) never
/// affect records and are NOT transmitted — each worker keeps its own.
/// The receiver cross-checks fi::campaign_config_digest of the rebuilt pair
/// against the digest the coordinator sent.
struct CampaignSpec {
  std::string workload = "benchmark-light";
  std::string isa = "RV32IM";
  std::string bus = "ahb";
  int mem_kb = 16;
  fi::CampaignConfig config;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static CampaignSpec decode(util::ByteReader& in);
};

/// Builds the campaign SoC the spec describes (assembles the named workload,
/// instantiates the bus and memories). Throws InvalidArgument on an unknown
/// workload or bus name.
[[nodiscard]] soc::SocModel build_model(const CampaignSpec& spec);

// --- message payloads ---------------------------------------------------------

struct HelloMsg {
  std::uint64_t pid = 0;
  /// Stable identity of one Worker instance, preserved across reconnects —
  /// the key of the coordinator's health telemetry and quarantine set (a
  /// pid is not enough: in-process test fleets share one).
  std::uint64_t worker_id = 0;
  std::uint32_t threads = 1;
  /// The worker's challenge to the coordinator (mutual auth): the
  /// kChallenge reply must carry handshake_mac(secret, ..., nonce).
  std::uint64_t nonce = 0;
  /// Port of the worker's peer-query listener (net/election.h), exchanged
  /// during the handshake so the coordinator can hand every worker a roster
  /// of its peers — the contact list a coordinator-less election runs over.
  /// 0 = this worker does not participate in elections.
  std::uint16_t peer_port = 0;
  /// Host peers should dial to reach the peer-query listener. Empty = use
  /// whatever address this hello's connection came from (the loopback /
  /// single-host default). Set via --advertise-addr when the worker sits
  /// behind NAT or binds a non-routable interface.
  std::string peer_host;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static HelloMsg decode(util::ByteReader& in);
};

/// Coordinator -> worker, in reply to kHello: the coordinator's nonce for
/// the worker to prove itself over, the campaign-config digest the proofs
/// bind to, and the coordinator's own proof over the worker's hello nonce.
/// No campaign data beyond the digest crosses the wire until the worker's
/// kAuth proof has been verified.
struct ChallengeMsg {
  std::uint64_t nonce = 0;
  std::uint64_t config_digest = 0;
  /// The coordinator's election epoch, bound into both handshake MACs. A
  /// worker that has seen an election at epoch E rejects any challenge with
  /// epoch < E as WorkerRejected — a stale primary coming back from the
  /// dead cannot pass the handshake, let alone split the fleet, because its
  /// MAC is computed over the old epoch.
  std::uint64_t epoch = 0;
  std::uint64_t mac = 0;  // handshake_mac over the hello's nonce

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static ChallengeMsg decode(util::ByteReader& in);
};

struct AuthMsg {
  std::uint64_t mac = 0;  // handshake_mac over the challenge's nonce

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static AuthMsg decode(util::ByteReader& in);
};

/// Worker -> coordinator after every kRecords frame: cumulative counters
/// plus the payload digest of the records frame just sent, so the
/// coordinator can cross-check what it received against what the worker
/// believes it produced. Feeds the health::FleetMonitor.
struct HeartbeatMsg {
  std::uint64_t worker_id = 0;
  std::uint64_t chunks_done = 0;
  std::uint64_t records_produced = 0;
  double last_chunk_seconds = 0.0;  // simulation wall time of the last chunk
  double total_seconds = 0.0;
  std::uint64_t last_records_digest = 0;  // fnv1a of the last kRecords payload

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static HeartbeatMsg decode(util::ByteReader& in);
};

/// Coordinator -> worker: this coordinator is going away; the campaign
/// continues at host:port (a standby resuming from the dispatch journal).
struct ReconnectMsg {
  std::string host;
  std::uint16_t port = 0;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static ReconnectMsg decode(util::ByteReader& in);
};

struct CampaignMsg {
  CampaignSpec spec;
  std::uint64_t config_digest = 0;
  std::uint64_t total_injections = 0;
  /// Identity of this coordinator incarnation's journal (a fresh nonce per
  /// incarnation, 0 = journaling/replication off). Entry order can diverge
  /// across incarnations, so a worker's replica is only a valid prefix of
  /// the journal it was mirrored from — on a journal_id change the worker
  /// discards its replica and re-syncs from scratch via kReady/kJournalSync.
  std::uint64_t journal_id = 0;
  std::vector<std::uint8_t> bundle;  // encode_golden_bundle bytes

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static CampaignMsg decode(util::ByteReader& in);
};

struct ReadyMsg {
  std::uint64_t plan_size = 0;
  /// How many journal entries of the campaign's journal_id this worker's
  /// replica already holds — the coordinator streams only the missing tail.
  std::uint64_t replica_entries = 0;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static ReadyMsg decode(util::ByteReader& in);
};

/// Coordinator -> worker after every accepted (and locally fsynced) batch:
/// one journal entry, as the exact on-disk bytes (marker | len | CRC |
/// payload — see net/journal.h). The worker CRC-checks and decodes the
/// frame before admitting it to its in-memory replica, so every replica is
/// a verified byte-for-byte prefix of the coordinator's journal, ready to
/// be replayed by the tolerant reader after an election.
struct JournalSyncMsg {
  std::uint64_t journal_id = 0;
  std::uint64_t seq = 0;  // index of this entry within the journal
  std::vector<std::uint8_t> entry;  // one encode_journal_entry frame

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static JournalSyncMsg decode(util::ByteReader& in);
};

/// One fleet member as seen by the coordinator: its stable worker id plus
/// the host:port of its peer-query listener.
struct PeerEntry {
  std::uint64_t worker_id = 0;
  std::string host;
  std::uint16_t peer_port = 0;
};

/// Coordinator -> worker on every roster change: the election-capable fleet
/// members. When the coordinator dies, this list is who the survivors ask.
struct PeersMsg {
  std::vector<PeerEntry> peers;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static PeersMsg decode(util::ByteReader& in);
};

/// Worker -> worker on the peer port: who is asking.
struct PeerQueryMsg {
  std::uint64_t worker_id = 0;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static PeerQueryMsg decode(util::ByteReader& in);
};

/// The phase a peer reports during an election round. See net/election.h
/// for the state machine.
enum class PeerPhase : std::uint8_t {
  kServing = 0,   // in a live session with the coordinator below
  kLost = 1,      // lost its coordinator, not yet electing
  kElecting = 2,  // running an election round
  kPromoted = 3,  // won an election; coordinator below is itself
};

/// Worker -> worker reply to kPeerQuery: everything an elector needs to
/// pick a leader — candidacy, the length of the roster it was judged
/// against, phase, and where the campaign now lives if this peer already
/// knows. An empty coordinator_host means "the host you reached me at".
struct PeerInfoMsg {
  std::uint64_t worker_id = 0;
  std::uint64_t epoch = 0;
  PeerPhase phase = PeerPhase::kLost;
  std::uint64_t replica_entries = 0;
  /// Stands for election: holds the golden bundle and is listed in its own
  /// roster (see election_winner).
  bool candidate = false;
  std::string coordinator_host;
  std::uint16_t coordinator_port = 0;
  /// Entries in this peer's last kPeers roster.
  std::uint64_t roster_size = 0;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static PeerInfoMsg decode(util::ByteReader& in);
};

struct WorkMsg {
  std::uint64_t start = 0;
  std::uint64_t count = 0;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static WorkMsg decode(util::ByteReader& in);
};

struct RecordsMsg {
  std::uint64_t start = 0;
  std::uint64_t count = 0;
  std::vector<fi::ShardRecord> records;  // ascending index order

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static RecordsMsg decode(util::ByteReader& in);
};

struct ErrorMsg {
  std::string message;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static ErrorMsg decode(util::ByteReader& in);
};

/// Hard caps on one predict batch. Far above any real netlist (the largest
/// built-in SoC has a few thousand injectable cells, ten features each);
/// anything bigger is a corrupt or hostile request and is rejected before
/// allocation.
inline constexpr std::uint64_t kMaxPredictRows = 1u << 20;
inline constexpr std::uint64_t kMaxPredictFeatures = 1u << 12;

/// Client -> model server: one batch of raw (unscaled, unmasked) feature
/// rows to classify with the bundle registered under `alias`. Rows are
/// stored column-major and each column is varint-coded like the record
/// columns in .ssfs files: node features are overwhelmingly small
/// non-negative integers (fan-in counts, depths, type codes), so a column
/// of exactly-representable integral doubles travels as one tag byte plus
/// LEB128 varints; any other column falls back to raw IEEE-754 bit
/// patterns. Both paths are bit-exact, which is what makes the served
/// predictions byte-diffable against offline `ssresf predict`.
struct PredictRequestMsg {
  std::string alias;
  /// Expected campaign-config digest of the served bundle; the server
  /// refuses the batch if its bundle disagrees. 0 = accept any (the
  /// cross-netlist case, mirroring predict --cross-netlist).
  std::uint64_t config_digest = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t num_features = 0;
  /// Row-major rows.size() == num_rows, each of num_features doubles.
  std::vector<std::vector<double>> rows;

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static PredictRequestMsg decode(util::ByteReader& in);
};

/// Model server -> client: one ±1 label per request row (bit-packed, 1 =
/// sensitive / +1), plus the identity of the bundle that answered so the
/// client can pin results to a model generation across hot reloads.
struct PredictResponseMsg {
  std::string alias;
  std::uint64_t config_digest = 0;  // digest of the bundle that answered
  std::uint64_t generation = 0;     // registry generation that answered
  std::vector<int> labels;          // +1 / -1, one per request row

  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static PredictResponseMsg decode(util::ByteReader& in);
};

/// encode() into a fresh payload buffer (convenience for send_frame).
template <typename Msg>
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const Msg& msg) {
  util::ByteWriter out;
  msg.encode(out);
  return out.take();
}

}  // namespace ssresf::net
