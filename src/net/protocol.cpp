#include "net/protocol.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>

#include "soc/programs.h"
#include "util/error.h"

namespace ssresf::net {

namespace {

constexpr char kFrameMagic[4] = {'S', 'S', 'N', 'P'};
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 4 + 8;

void put_f64(util::ByteWriter& out, double v) {
  out.fixed64(std::bit_cast<std::uint64_t>(v));
}

double get_f64(util::ByteReader& in) {
  return std::bit_cast<double>(in.fixed64());
}

[[nodiscard]] int get_int(util::ByteReader& in) {
  return static_cast<int>(in.varint());
}

}  // namespace

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  return util::fnv1a(data);
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw InvalidArgument("net: frame payload exceeds the 1 GiB cap");
  }
  util::ByteWriter out;
  out.bytes(kFrameMagic, sizeof(kFrameMagic));
  out.u8(kProtocolVersion);
  out.u8(static_cast<std::uint8_t>(type));
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) out.u8(static_cast<std::uint8_t>(len >> (8 * i)));
  out.fixed64(fnv1a(payload));
  out.bytes(payload.data(), payload.size());
  return out.take();
}

void send_frame(util::Socket& socket, MsgType type,
                std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  socket.send_all(frame.data(), frame.size());
}

bool recv_frame(util::Socket& socket, Frame& out) {
  std::uint8_t header[kHeaderSize];
  if (!socket.recv_all(header, sizeof(header))) return false;
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw InvalidArgument("net: bad frame magic");
  }
  if (header[4] != kProtocolVersion) {
    throw InvalidArgument("net: protocol version mismatch (got " +
                          std::to_string(header[4]) + ", expected " +
                          std::to_string(kProtocolVersion) + ")");
  }
  if (header[5] > kMaxMsgType) {
    throw InvalidArgument("net: unknown message type " +
                          std::to_string(header[5]));
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[6 + i]) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    throw InvalidArgument("net: frame payload length " + std::to_string(len) +
                          " exceeds the 1 GiB cap");
  }
  std::uint64_t digest = 0;
  for (int i = 0; i < 8; ++i) {
    digest |= static_cast<std::uint64_t>(header[10 + i]) << (8 * i);
  }
  out.type = static_cast<MsgType>(header[5]);
  out.payload.resize(len);
  if (len > 0 && !socket.recv_all(out.payload.data(), len)) {
    throw Error("net: connection closed inside a frame");
  }
  if (fnv1a(out.payload) != digest) {
    throw InvalidArgument("net: frame payload digest mismatch (corrupt or "
                          "truncated stream)");
  }
  return true;
}

namespace {

/// Exact-count read bounded by an absolute deadline, built from recv_some +
/// wait_readable. Returns false on a clean EOF before the first byte (only
/// when `allow_clean_eof`); throws Error on mid-buffer EOF or when the
/// deadline passes with the buffer incomplete.
bool recv_exact_by(util::Socket& socket, std::uint8_t* p, std::size_t n,
                   std::chrono::steady_clock::time_point deadline,
                   double deadline_seconds, bool allow_clean_eof) {
  std::size_t got = 0;
  while (got < n) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      throw Error("net: frame receive deadline of " +
                  std::to_string(deadline_seconds) + "s exceeded (" +
                  std::to_string(got) + " of " + std::to_string(n) +
                  " bytes; slow or stalled peer)");
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int wait_ms = static_cast<int>(left.count()) + 1;
    if (!socket.wait_readable(wait_ms)) continue;  // re-check the deadline
    const std::size_t r = socket.recv_some(p + got, n - got);
    if (r == 0) {
      if (got == 0 && allow_clean_eof) return false;
      throw Error("net: connection closed mid-message (" +
                  std::to_string(got) + " of " + std::to_string(n) +
                  " bytes)");
    }
    got += r;
  }
  return true;
}

}  // namespace

bool recv_frame_deadline(util::Socket& socket, Frame& out,
                         double deadline_seconds) {
  if (deadline_seconds <= 0.0) {
    throw InvalidArgument("net: frame receive deadline must be positive, got " +
                          std::to_string(deadline_seconds));
  }
  // Waiting for a frame to *start* is unbounded — an idle peer is healthy.
  if (!socket.wait_readable(-1)) {
    throw Error("net: wait for frame failed");
  }
  // From the first header byte on, the whole frame must land in time.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadline_seconds));
  std::uint8_t header[kHeaderSize];
  if (!recv_exact_by(socket, header, sizeof(header), deadline,
                     deadline_seconds, /*allow_clean_eof=*/true)) {
    return false;
  }
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw InvalidArgument("net: bad frame magic");
  }
  if (header[4] != kProtocolVersion) {
    throw InvalidArgument("net: protocol version mismatch (got " +
                          std::to_string(header[4]) + ", expected " +
                          std::to_string(kProtocolVersion) + ")");
  }
  if (header[5] > kMaxMsgType) {
    throw InvalidArgument("net: unknown message type " +
                          std::to_string(header[5]));
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[6 + i]) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    throw InvalidArgument("net: frame payload length " + std::to_string(len) +
                          " exceeds the 1 GiB cap");
  }
  std::uint64_t digest = 0;
  for (int i = 0; i < 8; ++i) {
    digest |= static_cast<std::uint64_t>(header[10 + i]) << (8 * i);
  }
  out.type = static_cast<MsgType>(header[5]);
  out.payload.resize(len);
  if (len > 0) {
    (void)recv_exact_by(socket, out.payload.data(), len, deadline,
                        deadline_seconds, /*allow_clean_eof=*/false);
  }
  if (fnv1a(out.payload) != digest) {
    throw InvalidArgument("net: frame payload digest mismatch (corrupt or "
                          "truncated stream)");
  }
  return true;
}

void CampaignSpec::encode(util::ByteWriter& out) const {
  out.sized_bytes(workload.data(), workload.size());
  out.sized_bytes(isa.data(), isa.size());
  out.sized_bytes(bus.data(), bus.size());
  out.varint(static_cast<std::uint64_t>(mem_kb));
  out.u8(static_cast<std::uint8_t>(config.engine));
  out.fixed64(config.seed);
  put_f64(out, config.environment.flux);
  put_f64(out, config.environment.let);
  out.varint(static_cast<std::uint64_t>(config.clustering.num_clusters));
  out.varint(static_cast<std::uint64_t>(config.clustering.layer_depth));
  out.varint(static_cast<std::uint64_t>(config.clustering.max_iterations));
  out.u8(config.clustering.expand_memory_weight ? 1 : 0);
  put_f64(out, config.sampling.fraction);
  out.varint(static_cast<std::uint64_t>(config.sampling.min_per_cluster));
  out.varint(static_cast<std::uint64_t>(config.sampling.max_per_cluster));
  out.u8(static_cast<std::uint8_t>(config.sampling.weighting));
  out.varint(static_cast<std::uint64_t>(config.sampling.memory_macro_draws));
  out.varint(static_cast<std::uint64_t>(config.run_cycles));
  out.varint(static_cast<std::uint64_t>(config.max_cycles));
}

CampaignSpec CampaignSpec::decode(util::ByteReader& in) {
  CampaignSpec spec;
  const auto get_string = [&in]() {
    const std::vector<char> bytes = in.byte_vec<char>();
    return std::string(bytes.begin(), bytes.end());
  };
  spec.workload = get_string();
  spec.isa = get_string();
  spec.bus = get_string();
  spec.mem_kb = get_int(in);
  const std::uint8_t engine = in.u8();
  if (engine > static_cast<std::uint8_t>(sim::EngineKind::kBitParallel)) {
    throw InvalidArgument("campaign spec: bad engine kind");
  }
  spec.config.engine = static_cast<sim::EngineKind>(engine);
  spec.config.seed = in.fixed64();
  spec.config.environment.flux = get_f64(in);
  spec.config.environment.let = get_f64(in);
  spec.config.clustering.num_clusters = get_int(in);
  spec.config.clustering.layer_depth = get_int(in);
  spec.config.clustering.max_iterations = get_int(in);
  spec.config.clustering.expand_memory_weight = in.u8() != 0;
  spec.config.sampling.fraction = get_f64(in);
  spec.config.sampling.min_per_cluster = get_int(in);
  spec.config.sampling.max_per_cluster = get_int(in);
  const std::uint8_t weighting = in.u8();
  if (weighting > static_cast<std::uint8_t>(cluster::SampleWeighting::kMixed)) {
    throw InvalidArgument("campaign spec: bad sample weighting");
  }
  spec.config.sampling.weighting =
      static_cast<cluster::SampleWeighting>(weighting);
  spec.config.sampling.memory_macro_draws = get_int(in);
  spec.config.run_cycles = get_int(in);
  spec.config.max_cycles = get_int(in);
  return spec;
}

soc::SocModel build_model(const CampaignSpec& spec) {
  soc::SocConfig cfg;
  cfg.name = "campaign-soc";
  cfg.mem_bytes = static_cast<std::uint64_t>(spec.mem_kb) * 1024;
  cfg.mem_tech = netlist::MemTech::kSram;
  if (spec.bus == "apb") {
    cfg.bus = soc::BusProtocol::kApb;
  } else if (spec.bus == "ahb") {
    cfg.bus = soc::BusProtocol::kAhb;
  } else {
    throw InvalidArgument("unknown bus '" + spec.bus + "'");
  }
  cfg.cpu_isa = spec.isa;

  const auto core_cfg = soc::CoreConfig::from_isa(cfg.cpu_isa);
  soc::Workload workload;
  if (spec.workload == "benchmark") {
    workload = soc::benchmark_workload(core_cfg, false);
  } else if (spec.workload == "benchmark-light") {
    workload = soc::benchmark_workload(core_cfg, true);
  } else if (spec.workload == "checksum") {
    workload = soc::checksum_workload();
  } else if (spec.workload == "fibonacci") {
    workload = soc::fibonacci_workload();
  } else if (spec.workload == "sort") {
    workload = soc::sort_workload();
  } else {
    throw InvalidArgument("unknown workload '" + spec.workload + "'");
  }
  const soc::Program programs[] = {soc::assemble(workload.source)};
  return soc::build_soc(cfg, programs);
}

void HelloMsg::encode(util::ByteWriter& out) const {
  out.varint(pid);
  out.fixed64(worker_id);
  out.varint(threads);
  out.fixed64(nonce);
  out.varint(peer_port);
  out.sized_bytes(peer_host.data(), peer_host.size());
}

HelloMsg HelloMsg::decode(util::ByteReader& in) {
  HelloMsg msg;
  msg.pid = in.varint();
  msg.worker_id = in.fixed64();
  msg.threads = static_cast<std::uint32_t>(in.varint());
  msg.nonce = in.fixed64();
  msg.peer_port = static_cast<std::uint16_t>(in.varint());
  const std::vector<char> host = in.byte_vec<char>();
  msg.peer_host.assign(host.begin(), host.end());
  return msg;
}

void ChallengeMsg::encode(util::ByteWriter& out) const {
  out.fixed64(nonce);
  out.fixed64(config_digest);
  out.varint(epoch);
  out.fixed64(mac);
}

ChallengeMsg ChallengeMsg::decode(util::ByteReader& in) {
  ChallengeMsg msg;
  msg.nonce = in.fixed64();
  msg.config_digest = in.fixed64();
  msg.epoch = in.varint();
  msg.mac = in.fixed64();
  return msg;
}

void AuthMsg::encode(util::ByteWriter& out) const { out.fixed64(mac); }

AuthMsg AuthMsg::decode(util::ByteReader& in) {
  AuthMsg msg;
  msg.mac = in.fixed64();
  return msg;
}

void HeartbeatMsg::encode(util::ByteWriter& out) const {
  out.fixed64(worker_id);
  out.varint(chunks_done);
  out.varint(records_produced);
  put_f64(out, last_chunk_seconds);
  put_f64(out, total_seconds);
  out.fixed64(last_records_digest);
}

HeartbeatMsg HeartbeatMsg::decode(util::ByteReader& in) {
  HeartbeatMsg msg;
  msg.worker_id = in.fixed64();
  msg.chunks_done = in.varint();
  msg.records_produced = in.varint();
  msg.last_chunk_seconds = get_f64(in);
  msg.total_seconds = get_f64(in);
  msg.last_records_digest = in.fixed64();
  return msg;
}

void ReconnectMsg::encode(util::ByteWriter& out) const {
  out.sized_bytes(host.data(), host.size());
  out.varint(port);
}

ReconnectMsg ReconnectMsg::decode(util::ByteReader& in) {
  ReconnectMsg msg;
  const std::vector<char> bytes = in.byte_vec<char>();
  msg.host.assign(bytes.begin(), bytes.end());
  msg.port = static_cast<std::uint16_t>(in.varint());
  return msg;
}

void CampaignMsg::encode(util::ByteWriter& out) const {
  spec.encode(out);
  out.fixed64(config_digest);
  out.varint(total_injections);
  out.fixed64(journal_id);
  out.byte_vec(bundle);
}

CampaignMsg CampaignMsg::decode(util::ByteReader& in) {
  CampaignMsg msg;
  msg.spec = CampaignSpec::decode(in);
  msg.config_digest = in.fixed64();
  msg.total_injections = in.varint();
  msg.journal_id = in.fixed64();
  msg.bundle = in.byte_vec<std::uint8_t>();
  return msg;
}

void ReadyMsg::encode(util::ByteWriter& out) const {
  out.varint(plan_size);
  out.varint(replica_entries);
}

ReadyMsg ReadyMsg::decode(util::ByteReader& in) {
  ReadyMsg msg;
  msg.plan_size = in.varint();
  msg.replica_entries = in.varint();
  return msg;
}

void JournalSyncMsg::encode(util::ByteWriter& out) const {
  out.fixed64(journal_id);
  out.varint(seq);
  out.byte_vec(entry);
}

JournalSyncMsg JournalSyncMsg::decode(util::ByteReader& in) {
  JournalSyncMsg msg;
  msg.journal_id = in.fixed64();
  msg.seq = in.varint();
  msg.entry = in.byte_vec<std::uint8_t>();
  return msg;
}

void PeersMsg::encode(util::ByteWriter& out) const {
  out.varint(peers.size());
  for (const PeerEntry& p : peers) {
    out.fixed64(p.worker_id);
    out.sized_bytes(p.host.data(), p.host.size());
    out.varint(p.peer_port);
  }
}

PeersMsg PeersMsg::decode(util::ByteReader& in) {
  PeersMsg msg;
  const std::uint64_t n = in.varint();
  msg.peers.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    PeerEntry p;
    p.worker_id = in.fixed64();
    const std::vector<char> host = in.byte_vec<char>();
    p.host.assign(host.begin(), host.end());
    p.peer_port = static_cast<std::uint16_t>(in.varint());
    msg.peers.push_back(std::move(p));
  }
  return msg;
}

void PeerQueryMsg::encode(util::ByteWriter& out) const {
  out.fixed64(worker_id);
}

PeerQueryMsg PeerQueryMsg::decode(util::ByteReader& in) {
  PeerQueryMsg msg;
  msg.worker_id = in.fixed64();
  return msg;
}

void PeerInfoMsg::encode(util::ByteWriter& out) const {
  out.fixed64(worker_id);
  out.varint(epoch);
  out.u8(static_cast<std::uint8_t>(phase));
  out.varint(replica_entries);
  out.u8(candidate ? 1 : 0);
  out.sized_bytes(coordinator_host.data(), coordinator_host.size());
  out.varint(coordinator_port);
  out.varint(roster_size);
}

PeerInfoMsg PeerInfoMsg::decode(util::ByteReader& in) {
  PeerInfoMsg msg;
  msg.worker_id = in.fixed64();
  msg.epoch = in.varint();
  const std::uint8_t phase = in.u8();
  if (phase > static_cast<std::uint8_t>(PeerPhase::kPromoted)) {
    throw InvalidArgument("peer info: unknown phase " + std::to_string(phase));
  }
  msg.phase = static_cast<PeerPhase>(phase);
  msg.replica_entries = in.varint();
  msg.candidate = in.u8() != 0;
  const std::vector<char> host = in.byte_vec<char>();
  msg.coordinator_host.assign(host.begin(), host.end());
  msg.coordinator_port = static_cast<std::uint16_t>(in.varint());
  msg.roster_size = in.varint();
  return msg;
}

void WorkMsg::encode(util::ByteWriter& out) const {
  out.varint(start);
  out.varint(count);
}

WorkMsg WorkMsg::decode(util::ByteReader& in) {
  WorkMsg msg;
  msg.start = in.varint();
  msg.count = in.varint();
  return msg;
}

void RecordsMsg::encode(util::ByteWriter& out) const {
  if (records.size() != count) {
    throw InvalidArgument("records message: count does not match records");
  }
  out.varint(start);
  out.varint(count);
  fi::encode_records(out, records);
}

RecordsMsg RecordsMsg::decode(util::ByteReader& in) {
  RecordsMsg msg;
  msg.start = in.varint();
  msg.count = in.varint();
  if (msg.count > kMaxFramePayload) {
    throw InvalidArgument("records message: implausible record count");
  }
  msg.records = fi::decode_records(in, msg.count);
  return msg;
}

void ErrorMsg::encode(util::ByteWriter& out) const {
  out.sized_bytes(message.data(), message.size());
}

ErrorMsg ErrorMsg::decode(util::ByteReader& in) {
  ErrorMsg msg;
  const std::vector<char> bytes = in.byte_vec<char>();
  msg.message.assign(bytes.begin(), bytes.end());
  return msg;
}

namespace {

/// True when `v` survives a double -> u64 -> double round trip bit-exactly:
/// a non-negative integral value below 2^53. -0.0 is excluded (its bit
/// pattern would come back as +0.0), as are NaN and infinity.
bool varint_exact(double v) {
  if (std::signbit(v) || !(v < 9007199254740992.0)) return false;
  const auto u = static_cast<std::uint64_t>(v);
  return static_cast<double>(u) == v;
}

}  // namespace

void PredictRequestMsg::encode(util::ByteWriter& out) const {
  if (rows.size() != num_rows) {
    throw InvalidArgument("predict request: row count mismatch");
  }
  if (num_rows > kMaxPredictRows || num_features > kMaxPredictFeatures) {
    throw InvalidArgument("predict request: batch exceeds the size cap");
  }
  out.sized_bytes(alias.data(), alias.size());
  out.fixed64(config_digest);
  out.varint(num_rows);
  out.varint(num_features);
  for (std::uint64_t f = 0; f < num_features; ++f) {
    bool integral = true;
    for (const std::vector<double>& row : rows) {
      if (row.size() != num_features) {
        throw InvalidArgument("predict request: ragged feature row");
      }
      if (!varint_exact(row[f])) {
        integral = false;
        break;
      }
    }
    out.u8(integral ? 1 : 0);
    for (const std::vector<double>& row : rows) {
      if (integral) {
        out.varint(static_cast<std::uint64_t>(row[f]));
      } else {
        out.fixed64(std::bit_cast<std::uint64_t>(row[f]));
      }
    }
  }
}

PredictRequestMsg PredictRequestMsg::decode(util::ByteReader& in) {
  PredictRequestMsg msg;
  const std::vector<char> alias = in.byte_vec<char>();
  msg.alias.assign(alias.begin(), alias.end());
  msg.config_digest = in.fixed64();
  msg.num_rows = in.varint();
  msg.num_features = in.varint();
  if (msg.num_rows > kMaxPredictRows ||
      msg.num_features > kMaxPredictFeatures) {
    throw InvalidArgument("predict request: batch exceeds the size cap");
  }
  // Every value costs at least one wire byte, so a (rows, features) pair
  // whose product exceeds the remaining payload cannot be honest — reject
  // it before the allocation below, not after.
  if (msg.num_features > 0 && msg.num_rows > in.remaining() / msg.num_features) {
    throw InvalidArgument("predict request: batch larger than its payload");
  }
  msg.rows.assign(static_cast<std::size_t>(msg.num_rows),
                  std::vector<double>(
                      static_cast<std::size_t>(msg.num_features), 0.0));
  for (std::uint64_t f = 0; f < msg.num_features; ++f) {
    const std::uint8_t tag = in.u8();
    if (tag > 1) {
      throw InvalidArgument("predict request: unknown column encoding " +
                            std::to_string(tag));
    }
    for (std::uint64_t r = 0; r < msg.num_rows; ++r) {
      msg.rows[r][f] = tag == 1
                           ? static_cast<double>(in.varint())
                           : std::bit_cast<double>(in.fixed64());
    }
  }
  return msg;
}

void PredictResponseMsg::encode(util::ByteWriter& out) const {
  out.sized_bytes(alias.data(), alias.size());
  out.fixed64(config_digest);
  out.varint(generation);
  out.varint(labels.size());
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] > 0) acc |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      out.u8(acc);
      acc = 0;
    }
  }
  if (labels.size() % 8 != 0) out.u8(acc);
}

PredictResponseMsg PredictResponseMsg::decode(util::ByteReader& in) {
  PredictResponseMsg msg;
  const std::vector<char> alias = in.byte_vec<char>();
  msg.alias.assign(alias.begin(), alias.end());
  msg.config_digest = in.fixed64();
  msg.generation = in.varint();
  const std::uint64_t n = in.varint();
  if (n > kMaxPredictRows) {
    throw InvalidArgument("predict response: implausible label count");
  }
  msg.labels.reserve(static_cast<std::size_t>(n));
  std::uint8_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 8 == 0) acc = in.u8();
    msg.labels.push_back((acc >> (i % 8)) & 1u ? 1 : -1);
  }
  return msg;
}

}  // namespace ssresf::net
