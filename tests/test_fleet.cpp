// The fault-tolerant fleet runtime: authenticated handshake (both rejection
// directions, before any campaign data moves), deterministic reconnect
// backoff, the network-chaos harness and its recovery paths, the dispatch
// journal (corruption, torn tails, resume), coordinator failover to a
// standby, and health-based quarantine. Every fault here is injected at a
// deterministic seam (op indices, test hooks, byte surgery on files) — no
// sleeps or retries in any assertion path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <thread>
#include <type_traits>

#include "core/scenario.h"
#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "fi/shard.h"
#include "net/auth.h"
#include "net/chaos.h"
#include "net/coordinator.h"
#include "net/election.h"
#include "net/health.h"
#include "net/journal.h"
#include "net/protocol.h"
#include "net/worker.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/socket.h"

namespace ssresf {
namespace {

net::CampaignSpec small_spec(std::uint64_t seed = 17) {
  net::CampaignSpec spec;
  spec.workload = "checksum";
  spec.isa = "RV32I";
  spec.bus = "ahb";
  spec.mem_kb = 8;
  spec.config.engine = sim::EngineKind::kLevelized;
  spec.config.clustering.num_clusters = 5;
  spec.config.sampling.fraction = 0.01;
  spec.config.sampling.min_per_cluster = 4;
  spec.config.sampling.max_per_cluster = 8;
  spec.config.sampling.weighting = cluster::SampleWeighting::kMixed;
  spec.config.sampling.memory_macro_draws = 8;
  spec.config.seed = seed;
  return spec;
}

void expect_same_result(const fi::CampaignResult& got,
                        const fi::CampaignResult& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i], want.records[i]) << "record " << i;
  }
  EXPECT_EQ(got.chip_ser_percent, want.chip_ser_percent);
  EXPECT_EQ(got.golden_cycles, want.golden_cycles);
}

std::vector<fi::ShardRecord> some_records(std::uint64_t start,
                                          std::size_t count) {
  std::vector<fi::ShardRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fi::ShardRecord r;
    r.index = start + i;
    r.record.event.target.kind = radiation::FaultKind::kSeu;
    r.record.event.target.cell = netlist::CellId{static_cast<std::uint32_t>(i)};
    r.record.event.time_ps = 500 * (start + i);
    r.record.cluster = static_cast<int>(i % 3);
    r.record.module_class = netlist::ModuleClass::kCpu;
    r.record.soft_error = (start + i) % 2 == 0;
    r.record.first_mismatch_cycle = static_cast<int>(i);
    records.push_back(r);
  }
  return records;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// --- reconnect backoff --------------------------------------------------------

TEST(FleetBackoff, DeterministicBoundedExponential) {
  const double base = 0.05;
  const double cap = 2.0;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double once = net::reconnect_backoff_seconds(42, attempt, base, cap);
    const double again = net::reconnect_backoff_seconds(42, attempt, base, cap);
    EXPECT_EQ(once, again) << "attempt " << attempt;  // bit-identical replay
    double exponential = base;
    for (int i = 1; i < attempt && exponential < cap; ++i) exponential *= 2.0;
    exponential = std::min(exponential, cap);
    EXPECT_GE(once, 0.5 * exponential) << "attempt " << attempt;
    EXPECT_LT(once, exponential + 1e-12) << "attempt " << attempt;
  }
  EXPECT_EQ(net::reconnect_backoff_seconds(42, 0, base, cap), 0.0);
  // Jitter decorrelates workers: two ids almost surely differ somewhere.
  bool differs = false;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    differs |= net::reconnect_backoff_seconds(1, attempt, base, cap) !=
               net::reconnect_backoff_seconds(2, attempt, base, cap);
  }
  EXPECT_TRUE(differs);
}

TEST(FleetBackoff, WorkerRejectsNonPositiveConnectTimeout) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  net::WorkerOptions wopts;
  wopts.connect_timeout_seconds = 0.0;
  EXPECT_THROW(net::Worker(db, wopts), InvalidArgument);
  wopts.connect_timeout_seconds = -3.0;
  EXPECT_THROW(net::Worker(db, wopts), InvalidArgument);
}

TEST(FleetConfig, CoordinatorRejectsBadTimeoutsAndJournallessHandoff) {
  const auto db = radiation::SoftErrorDatabase::default_database();
  const net::CampaignSpec spec = small_spec();
  {
    net::CoordinatorOptions copts;
    copts.worker_timeout_seconds = 0.0;
    EXPECT_THROW(net::Coordinator(spec, db, copts), InvalidArgument);
  }
  {
    net::CoordinatorOptions copts;
    copts.frame_deadline_seconds = -1.0;
    EXPECT_THROW(net::Coordinator(spec, db, copts), InvalidArgument);
  }
  {
    net::CoordinatorOptions copts;
    copts.handoff_after_frames = 5;  // handoff without a journal strands work
    EXPECT_THROW(net::Coordinator(spec, db, copts), InvalidArgument);
  }
}

// --- scenario fleet section ---------------------------------------------------

TEST(FleetConfig, ScenarioFleetSectionRoundTrips) {
  const core::ScenarioSpec spec = core::ScenarioSpec::parse(
      "scenario: fleet-demo\n"
      "fleet:\n"
      "  secret: lab-7\n"
      "  connect_timeout: 3\n"
      "  worker_timeout: 9\n"
      "  frame_deadline: 2\n"
      "  election_timeout: 1.5\n"
      "  peer_port: 39999\n"
      "  advertise_addr: worker-3.rack2\n");
  EXPECT_EQ(spec.fleet.secret, "lab-7");
  EXPECT_EQ(spec.fleet.connect_timeout, 3.0);
  EXPECT_EQ(spec.fleet.worker_timeout, 9.0);
  EXPECT_EQ(spec.fleet.frame_deadline, 2.0);
  EXPECT_EQ(spec.fleet.election_timeout, 1.5);
  EXPECT_EQ(spec.fleet.peer_port, 39999);
  EXPECT_EQ(spec.fleet.advertise_addr, "worker-3.rack2");

  const core::ScenarioSpec back = core::ScenarioSpec::parse(spec.dump());
  EXPECT_EQ(back.fleet.secret, spec.fleet.secret);
  EXPECT_EQ(back.fleet.connect_timeout, spec.fleet.connect_timeout);
  EXPECT_EQ(back.fleet.worker_timeout, spec.fleet.worker_timeout);
  EXPECT_EQ(back.fleet.frame_deadline, spec.fleet.frame_deadline);
  EXPECT_EQ(back.fleet.election_timeout, spec.fleet.election_timeout);
  EXPECT_EQ(back.fleet.peer_port, spec.fleet.peer_port);
  EXPECT_EQ(back.fleet.advertise_addr, spec.fleet.advertise_addr);

  // advertise_addr is execution-only: it must not move the campaign digest.
  core::ScenarioSpec plain = spec;
  plain.fleet.advertise_addr.clear();
  const soc::SocModel model = plain.build_model();
  EXPECT_EQ(fi::campaign_config_digest(model, spec.campaign.config),
            fi::campaign_config_digest(model, plain.campaign.config));

  // An empty secret survives the round trip too (open fleet stays open).
  const core::ScenarioSpec open = core::ScenarioSpec::parse("scenario: x\n");
  EXPECT_EQ(core::ScenarioSpec::parse(open.dump()).fleet.secret, "");
}

TEST(FleetConfig, ScenarioRejectsNonPositiveFleetTimeouts) {
  EXPECT_THROW((void)core::ScenarioSpec::parse("fleet:\n"
                                               "  worker_timeout: 0\n"),
               InvalidArgument);
  EXPECT_THROW((void)core::ScenarioSpec::parse("fleet:\n"
                                               "  connect_timeout: -2\n"),
               InvalidArgument);
  EXPECT_THROW((void)core::ScenarioSpec::parse("fleet:\n"
                                               "  frame_deadline: 0\n"),
               InvalidArgument);
  // Election knobs: the timeout may be 0 (= disabled) but never negative,
  // and the peer port must actually be a port.
  EXPECT_THROW((void)core::ScenarioSpec::parse("fleet:\n"
                                               "  election_timeout: -1\n"),
               InvalidArgument);
  EXPECT_THROW((void)core::ScenarioSpec::parse("fleet:\n"
                                               "  peer_port: 70000\n"),
               InvalidArgument);
  EXPECT_EQ(core::ScenarioSpec::parse(
                "scenario: x\nfleet:\n  election_timeout: 0\n")
                .fleet.election_timeout,
            0.0);
}

// --- authenticated handshake --------------------------------------------------

TEST(FleetAuth, HandshakeMacIsKeyedAndNonceBound) {
  const std::uint64_t mac = net::handshake_mac("lab-7", net::kProtocolVersion,
                                               0x1234, /*epoch=*/0, 0x5678);
  EXPECT_EQ(mac, net::handshake_mac("lab-7", net::kProtocolVersion, 0x1234, 0,
                                    0x5678));
  EXPECT_NE(mac, net::handshake_mac("lab-8", net::kProtocolVersion, 0x1234, 0,
                                    0x5678));
  EXPECT_NE(mac, net::handshake_mac("lab-7", net::kProtocolVersion, 0x1235, 0,
                                    0x5678));
  EXPECT_NE(mac, net::handshake_mac("lab-7", net::kProtocolVersion, 0x1234, 0,
                                    0x5679));
  EXPECT_NE(mac,
            net::handshake_mac("", net::kProtocolVersion, 0x1234, 0, 0x5678));
  // The election epoch is bound into the MAC: a deposed primary cannot
  // reuse its old proofs against a post-election fleet.
  EXPECT_NE(mac, net::handshake_mac("lab-7", net::kProtocolVersion, 0x1234,
                                    /*epoch=*/1, 0x5678));
}

TEST(FleetAuth, WrongSecretIsRejectedBeforeAnyCampaignData) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.secret = "lab-7";
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();

  auto merged = std::async(std::launch::async,
                           [&coordinator] { return coordinator.run(); });

  // Direction 1: the worker unmasks a coordinator that cannot prove the
  // secret — here simulated by a worker keyed differently. Its failure is
  // final (WorkerRejected), before it computes or receives anything.
  std::thread wrong([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.secret = "not-lab-7";
    net::Worker worker(db, wopts);
    EXPECT_THROW((void)worker.run(), net::WorkerRejected);
  });

  // Direction 2: a hand-rolled client that forges its auth proof. The
  // coordinator must answer kError — never kCampaign — so the spec, digest,
  // and golden bundle stay unseen.
  std::thread forged([port] {
    util::Socket conn = util::connect_to("127.0.0.1", port, 10.0);
    net::HelloMsg hello;
    hello.worker_id = 7777;
    hello.threads = 1;
    hello.nonce = net::fresh_nonce();
    net::send_frame(conn, net::MsgType::kHello, net::encode_payload(hello));
    net::Frame frame;
    ASSERT_TRUE(net::recv_frame(conn, frame));
    ASSERT_EQ(frame.type, net::MsgType::kChallenge);
    util::ByteReader payload(frame.payload);
    const net::ChallengeMsg challenge = net::ChallengeMsg::decode(payload);
    net::AuthMsg auth;
    auth.mac =
        net::handshake_mac("guessed-wrong", net::kProtocolVersion,
                           challenge.config_digest, challenge.epoch,
                           challenge.nonce);
    net::send_frame(conn, net::MsgType::kAuth, net::encode_payload(auth));
    if (net::recv_frame(conn, frame)) {
      EXPECT_EQ(frame.type, net::MsgType::kError);
    }
  });

  // A properly keyed worker finishes the campaign regardless.
  std::thread good([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.secret = "lab-7";
    net::Worker worker(db, wopts);
    (void)worker.run();
  });

  expect_same_result(merged.get(), baseline);
  wrong.join();
  forged.join();
  good.join();
}

// --- chaos harness ------------------------------------------------------------

TEST(FleetChaos, EachFaultKindSurfacesThroughTheNormalFailureMachinery) {
  {
    // kGarbleSend: one flipped bit, the receiver's digest check rejects.
    auto [a, b] = util::Socket::pair();
    net::ChaosSchedule chaos;
    chaos.add({0, net::ChaosKind::kGarbleSend, 0});
    const std::vector<std::uint8_t> payload(32, 0xcd);
    EXPECT_FALSE(chaos.send_frame(a, net::MsgType::kRecords, payload));
    net::Frame frame;
    EXPECT_THROW((void)net::recv_frame(b, frame), InvalidArgument);
  }
  {
    // kTruncateSend: mid-frame EOF, an Error (never a clean end-of-stream).
    auto [a, b] = util::Socket::pair();
    net::ChaosSchedule chaos;
    chaos.add({0, net::ChaosKind::kTruncateSend, 9});
    const std::vector<std::uint8_t> payload(32, 0xcd);
    EXPECT_FALSE(chaos.send_frame(a, net::MsgType::kRecords, payload));
    net::Frame frame;
    EXPECT_THROW((void)net::recv_frame(b, frame), Error);
  }
  {
    // kDisconnect: nothing sent, clean EOF on the far side.
    auto [a, b] = util::Socket::pair();
    net::ChaosSchedule chaos;
    chaos.add({0, net::ChaosKind::kDisconnect, 0});
    EXPECT_FALSE(chaos.send_frame(a, net::MsgType::kRecords, {}));
    net::Frame frame;
    EXPECT_FALSE(net::recv_frame(b, frame));
  }
  {
    // kDelayMs: latency only; the frame arrives intact.
    auto [a, b] = util::Socket::pair();
    net::ChaosSchedule chaos;
    chaos.add({0, net::ChaosKind::kDelayMs, 1});
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    EXPECT_TRUE(chaos.send_frame(a, net::MsgType::kWork, payload));
    net::Frame frame;
    ASSERT_TRUE(net::recv_frame(b, frame));
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(FleetChaos, EventsFireAtTheirOpIndexAndAreConsumedOnce) {
  auto [a, b] = util::Socket::pair();
  net::ChaosSchedule chaos;
  chaos.add({1, net::ChaosKind::kGarbleSend, 0});
  EXPECT_EQ(chaos.pending(), 1u);
  const std::vector<std::uint8_t> payload = {5, 5, 5};
  // Op 0: clean. Op 1: garbled. The event is then gone.
  EXPECT_TRUE(chaos.send_frame(a, net::MsgType::kWork, payload));
  EXPECT_FALSE(chaos.send_frame(a, net::MsgType::kWork, payload));
  EXPECT_EQ(chaos.pending(), 0u);
  EXPECT_EQ(chaos.ops_sent(), 2u);
  net::Frame frame;
  ASSERT_TRUE(net::recv_frame(b, frame));  // the clean op-0 frame
  EXPECT_EQ(frame.payload, payload);
  EXPECT_THROW((void)net::recv_frame(b, frame), InvalidArgument);  // garbled
}

TEST(FleetChaos, SeededScheduleIsDeterministic) {
  const net::ChaosSchedule a = net::ChaosSchedule::from_seed(9, 5, 2, 40);
  EXPECT_EQ(a.pending(), 5u);
  EXPECT_TRUE(net::ChaosSchedule::from_seed(9, 0, 0, 10).empty());
}

TEST(FleetChaos, CampaignSurvivesChaosFleetWithIdenticalRecords) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 8u);

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();
  auto merged = std::async(std::launch::async,
                           [&coordinator] { return coordinator.run(); });

  // One worker per fault kind (plus a clean one), each faulting a few frames
  // into its session and then recovering through reconnect-and-resume.
  net::ChaosSchedule garble, truncate, drop, delay;
  garble.add({4, net::ChaosKind::kGarbleSend, 0});
  truncate.add({5, net::ChaosKind::kTruncateSend, 11});
  drop.add({3, net::ChaosKind::kDisconnect, 0});
  delay.add({2, net::ChaosKind::kDelayMs, 5});
  net::ChaosSchedule* schedules[] = {&garble, &truncate, &drop, &delay,
                                     nullptr};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < std::size(schedules); ++k) {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = 100 + k;
    wopts.chaos = schedules[k];
    wopts.backoff_base_seconds = 0.01;  // keep the test quick
    threads.emplace_back([&db, wopts] {
      try {
        net::Worker worker(db, wopts);
        (void)worker.run();
      } catch (const Error&) {
        // A worker that exhausts its chaos-riddled session is fine; the
        // coordinator reassigns.
      }
    });
  }
  expect_same_result(merged.get(), baseline);
  for (std::thread& t : threads) t.join();
}

// --- dispatch journal ---------------------------------------------------------

TEST(FleetJournal, RoundTripsAndResumesAcrossWriters) {
  const std::string path = testing::TempDir() + "/ssresf_journal_rt.ssjl";
  const std::uint64_t digest = 0xabcdef0123456789ull;
  {
    net::JournalWriter writer(path, digest, 10);
    writer.append(0, some_records(0, 3));
    writer.append(5, some_records(5, 2));
  }
  net::JournalContents contents = net::read_journal(path, digest, true);
  EXPECT_EQ(contents.config_digest, digest);
  EXPECT_EQ(contents.total_injections, 10u);
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_EQ(contents.entries[0].start, 0u);
  EXPECT_EQ(contents.entries[0].records.size(), 3u);
  EXPECT_EQ(contents.entries[1].start, 5u);
  EXPECT_EQ(contents.entries[1].records[1].index, 6u);

  // Resume appends past the existing entries.
  {
    net::JournalWriter writer = net::JournalWriter::resume(path, contents);
    writer.append(8, some_records(8, 2));
  }
  contents = net::read_journal(path, digest, true);
  ASSERT_EQ(contents.entries.size(), 3u);
  EXPECT_EQ(contents.entries[2].start, 8u);
  std::remove(path.c_str());
}

TEST(FleetJournal, RejectsAForeignCampaignDigestLoudly) {
  const std::string path = testing::TempDir() + "/ssresf_journal_digest.ssjl";
  {
    net::JournalWriter writer(path, 0xfeed, 4);
    writer.append(0, some_records(0, 1));
  }
  try {
    (void)net::read_journal(path, 0xbeef, true);
    FAIL() << "expected a digest mismatch";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    // Both digests are named: the operator sees *which* campaign the file
    // belongs to, not just that it is wrong.
    EXPECT_NE(what.find("0x000000000000feed"), std::string::npos) << what;
    EXPECT_NE(what.find("0x000000000000beef"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(FleetJournal, CorruptEntryNamesOffsetStrictButTolerantCutsTheTail) {
  const std::string path = testing::TempDir() + "/ssresf_journal_corrupt.ssjl";
  const std::uint64_t digest = 0x1111;
  {
    net::JournalWriter writer(path, digest, 8);
    writer.append(0, some_records(0, 2));
    writer.append(4, some_records(4, 2));
  }
  const net::JournalContents clean = net::read_journal(path, digest, true);
  ASSERT_EQ(clean.entries.size(), 2u);

  // Flip one byte inside the second entry's payload.
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::size_t second = static_cast<std::size_t>(
      21 + (clean.valid_bytes - 21) / 2);  // somewhere inside entry 2
  bytes[second + 20] ^= 0x10;
  spit(path, bytes);

  try {
    (void)net::read_journal(path, digest, true);
    FAIL() << "expected strict read to reject the corrupt entry";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
  // The tolerant (crash-recovery) reader keeps everything before the defect.
  const net::JournalContents cut = net::read_journal(path, digest, false);
  ASSERT_EQ(cut.entries.size(), 1u);
  EXPECT_EQ(cut.entries[0].start, 0u);
  EXPECT_LT(cut.valid_bytes, bytes.size());

  // A torn tail (half-written final entry) behaves the same way, and resume
  // truncates it so the journal is strict-clean again.
  bytes.resize(bytes.size() - 7);
  spit(path, bytes);
  const net::JournalContents torn = net::read_journal(path, digest, false);
  ASSERT_EQ(torn.entries.size(), 1u);
  {
    net::JournalWriter writer = net::JournalWriter::resume(path, torn);
    writer.append(4, some_records(4, 2));
  }
  EXPECT_EQ(net::read_journal(path, digest, true).entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(FleetJournal, TruncatedHeaderIsRejectedWithByteCounts) {
  const std::string path = testing::TempDir() + "/ssresf_journal_header.ssjl";
  spit(path, {0x53, 0x53, 0x4a});  // "SSJ" and nothing else
  try {
    (void)net::read_journal(path, 0, true);
    FAIL() << "expected a truncated-header rejection";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- golden bundle file corruption (satellite of the same robustness story) ---

TEST(FleetJournal, CorruptGoldenBundleFileNamesTheOffset) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  fi::detail::CampaignPrep prep = fi::detail::prepare_campaign(
      model, spec.config, db, /*for_execution=*/true);
  const std::string path = testing::TempDir() + "/ssresf_corrupt.ssgb";
  fi::write_golden_bundle_file(
      path, model, spec.config,
      fi::extract_golden_bundle(model, spec.config, prep));

  // Bit flip deep inside the encoded trace: decode must fail and name where.
  std::vector<std::uint8_t> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] ^= 0x04;
  spit(path, bytes);
  try {
    (void)fi::read_golden_bundle_file(path, model, spec.config);
    // A flipped logic-value bit may still decode to a *valid* value; the
    // strict structural checks make that overwhelmingly unlikely here, but
    // if it decodes, the trace/ladder cross-checks downstream still guard
    // correctness. Either way a throw with an offset is the expected path.
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }

  // Truncation mid-stream: rejected, never silently partial.
  bytes.resize(bytes.size() / 3);
  spit(path, bytes);
  EXPECT_THROW((void)fi::read_golden_bundle_file(path, model, spec.config),
               InvalidArgument);

  // Digest mismatch names both digests.
  try {
    std::remove(path.c_str());
    fi::write_golden_bundle_file(
        path, model, spec.config,
        fi::extract_golden_bundle(model, spec.config, prep));
    (void)fi::read_golden_bundle_file(path, model, small_spec(18).config);
    FAIL() << "expected a digest mismatch";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("0x"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// --- fleet health / quarantine ------------------------------------------------

TEST(FleetHealth, SlowOutlierIsQuarantinedAgainstTheRestOfTheFleet) {
  net::FleetMonitor monitor;
  ASSERT_TRUE(monitor.on_connect(1));
  ASSERT_TRUE(monitor.on_connect(2));
  ASSERT_TRUE(monitor.on_connect(3));
  const auto beat = [](std::uint64_t id, double seconds) {
    net::HeartbeatMsg hb;
    hb.worker_id = id;
    hb.chunks_done = 1;
    hb.records_produced = 2;
    hb.last_chunk_seconds = seconds;
    hb.total_seconds = seconds;
    hb.last_records_digest = 0x77;
    return hb;
  };
  // Workers 1 and 2 build the fleet baseline: ten 0.1s chunks.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(monitor.on_heartbeat(beat(1, 0.1), 0x77),
              net::QuarantineReason::kNone);
    EXPECT_EQ(monitor.on_heartbeat(beat(2, 0.1), 0x77),
              net::QuarantineReason::kNone);
  }
  // Worker 3 reports 10s chunks: far outside any sane z-score once it has
  // min_worker_samples of its own.
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 10.0), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 10.0), 0x77),
            net::QuarantineReason::kSlow);
  EXPECT_TRUE(monitor.quarantined(3));
  EXPECT_EQ(monitor.healthy_count(), 2u);
  // A quarantined worker is refused at its next hello.
  EXPECT_FALSE(monitor.on_connect(3));
  // The status table names it.
  EXPECT_NE(monitor.status_table().find("slow"), std::string::npos);
}

TEST(FleetHealth, SubMillisecondChunksToleratePerChunkStalls) {
  net::FleetMonitor monitor;
  ASSERT_TRUE(monitor.on_connect(1));
  ASSERT_TRUE(monitor.on_connect(2));
  ASSERT_TRUE(monitor.on_connect(3));
  ASSERT_TRUE(monitor.on_connect(4));
  const auto beat = [](std::uint64_t id, double seconds) {
    net::HeartbeatMsg hb;
    hb.worker_id = id;
    hb.chunks_done = 1;
    hb.last_chunk_seconds = seconds;
    hb.total_seconds = seconds;
    hb.last_records_digest = 0x77;
    return hb;
  };
  // A fleet of 0.5 ms chunks with 0.1 ms jitter.
  for (int i = 0; i < 5; ++i) {
    const double jitter = 1e-4 * (i % 3);
    EXPECT_EQ(monitor.on_heartbeat(beat(1, 5e-4 + jitter), 0x77),
              net::QuarantineReason::kNone);
    EXPECT_EQ(monitor.on_heartbeat(beat(2, 5e-4 - jitter), 0x77),
              net::QuarantineReason::kNone);
  }
  // Worker 3 was descheduled for 50 ms during one of its first two chunks:
  // two orders of magnitude over the fleet's own spread, but no straggler.
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 5e-4), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 0.05), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_FALSE(monitor.quarantined(3));
  // Worker 4 takes 100 ms per chunk: a straggler, whatever the chunk size.
  EXPECT_EQ(monitor.on_heartbeat(beat(4, 0.1), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_EQ(monitor.on_heartbeat(beat(4, 0.1), 0x77),
            net::QuarantineReason::kSlow);
}

TEST(FleetHealth, DigestMismatchIsQuarantinedImmediately) {
  net::FleetMonitor monitor;
  ASSERT_TRUE(monitor.on_connect(1));
  ASSERT_TRUE(monitor.on_connect(2));
  net::HeartbeatMsg hb;
  hb.worker_id = 2;
  hb.chunks_done = 1;
  hb.last_records_digest = 0xbad;
  EXPECT_EQ(monitor.on_heartbeat(hb, 0x600d),
            net::QuarantineReason::kDigestMismatch);
  EXPECT_TRUE(monitor.quarantined(2));
  // With nothing accepted yet (digest 0) there is no basis to judge.
  net::HeartbeatMsg first;
  first.worker_id = 1;
  first.last_records_digest = 0x123;
  EXPECT_EQ(monitor.on_heartbeat(first, 0), net::QuarantineReason::kNone);
}

TEST(FleetHealth, FlappingWorkerIsRefused) {
  net::HealthOptions options;
  options.flap_limit = 3;
  net::FleetMonitor monitor(options);
  ASSERT_TRUE(monitor.on_connect(9));  // keeps the fleet from going empty
  for (int c = 1; c <= 4; ++c) {
    EXPECT_TRUE(monitor.on_connect(5)) << "connect " << c;
  }
  EXPECT_FALSE(monitor.on_connect(5));  // 4 reconnects > flap_limit 3
  EXPECT_EQ(monitor.workers().at(5).reason,
            net::QuarantineReason::kFlapping);
}

TEST(FleetHealth, NeverQuarantinesTheLastHealthyWorker) {
  net::FleetMonitor monitor;
  ASSERT_TRUE(monitor.on_connect(1));
  net::HeartbeatMsg hb;
  hb.worker_id = 1;
  hb.last_records_digest = 0xbad;
  // Solo fleet: even a digest mismatch is tolerated — a degraded fleet that
  // finishes beats a pristine one that stalls.
  EXPECT_EQ(monitor.on_heartbeat(hb, 0x600d), net::QuarantineReason::kNone);
  EXPECT_FALSE(monitor.quarantined(1));
  // The moment a second worker exists, the next offense sticks.
  ASSERT_TRUE(monitor.on_connect(2));
  EXPECT_EQ(monitor.on_heartbeat(hb, 0x600d),
            net::QuarantineReason::kDigestMismatch);
}

TEST(FleetHealth, DeadWorkersDoNotCountTowardTheLastHealthyGuard) {
  net::FleetMonitor monitor;
  ASSERT_TRUE(monitor.on_connect(1));
  ASSERT_TRUE(monitor.on_connect(2));
  ASSERT_TRUE(monitor.on_connect(3));
  const auto beat = [](std::uint64_t id, double seconds) {
    net::HeartbeatMsg hb;
    hb.worker_id = id;
    hb.chunks_done = 1;
    hb.last_chunk_seconds = seconds;
    hb.total_seconds = seconds;
    hb.last_records_digest = 0x77;
    return hb;
  };
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(monitor.on_heartbeat(beat(1, 0.1), 0x77),
              net::QuarantineReason::kNone);
    EXPECT_EQ(monitor.on_heartbeat(beat(2, 0.1), 0x77),
              net::QuarantineReason::kNone);
  }
  // Workers 1 and 2 die without ever being quarantined (SIGKILL, say).
  monitor.on_disconnect(1);
  monitor.on_disconnect(2);
  // Worker 3 is now the only one alive. Its 10s chunks are a clear outlier
  // against the dead workers' baseline, but quarantining it would leave the
  // campaign with nobody — the guard must count live workers, not ghosts.
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 10.0), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_EQ(monitor.on_heartbeat(beat(3, 10.0), 0x77),
            net::QuarantineReason::kNone);
  EXPECT_FALSE(monitor.quarantined(3));
}

TEST(FleetHealth, QuarantinedWorkerIsParoledWhenTheFleetWouldStarve) {
  net::HealthOptions options;
  options.flap_limit = 1;
  net::FleetMonitor monitor(options);
  ASSERT_TRUE(monitor.on_connect(1));
  ASSERT_TRUE(monitor.on_connect(2));
  ASSERT_TRUE(monitor.on_connect(2));  // reconnect 1: at the limit
  EXPECT_FALSE(monitor.on_connect(2));  // reconnect 2: quarantined
  EXPECT_TRUE(monitor.quarantined(2));
  // While worker 1 is alive, worker 2 stays refused.
  EXPECT_FALSE(monitor.on_connect(2));
  // Worker 1 dies. Now refusing worker 2 would stall the campaign forever:
  // its next hello is paroled instead.
  monitor.on_disconnect(1);
  monitor.on_disconnect(2);
  EXPECT_TRUE(monitor.on_connect(2));
  EXPECT_FALSE(monitor.quarantined(2));
}

TEST(FleetHealth, CorruptDigestWorkerIsQuarantinedMidCampaign) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 1;  // many chunks -> many heartbeats
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();
  auto merged = std::async(std::launch::async,
                           [&coordinator] { return coordinator.run(); });

  std::thread good([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = 1;
    net::Worker worker(db, wopts);
    (void)worker.run();
  });
  std::thread bad([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = 2;
    wopts.corrupt_heartbeat_digest = true;
    net::Worker worker(db, wopts);
    // Quarantine surfaces as a rejection (or a dropped session that runs out
    // of retries against a coordinator that refuses readmission).
    EXPECT_THROW((void)worker.run(), Error);
  });

  expect_same_result(merged.get(), baseline);
  good.join();
  bad.join();
  EXPECT_TRUE(coordinator.monitor().quarantined(2));
  EXPECT_EQ(coordinator.monitor().workers().at(2).reason,
            net::QuarantineReason::kDigestMismatch);
  // Records already accepted from worker 2 stayed — determinism makes them
  // as good as anyone's — which expect_same_result above already proved.
}

// --- coordinator failover -----------------------------------------------------

TEST(FleetFailover, StandbyResumesFromJournalWithIdenticalRecords) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 8u);
  const std::uint64_t digest = fi::campaign_config_digest(model, spec.config);

  const std::string journal = testing::TempDir() + "/ssresf_failover.ssjl";
  std::remove(journal.c_str());

  // The standby binds its port first (it is the redirect target), but only
  // runs once the primary has handed off.
  net::CoordinatorOptions standby_opts;
  standby_opts.port = 0;
  standby_opts.loopback_only = true;
  standby_opts.chunk_injections = 2;
  standby_opts.secret = "failover-demo";
  standby_opts.journal_path = journal;
  net::Coordinator standby(spec, db, standby_opts);

  net::CoordinatorOptions primary_opts = standby_opts;
  primary_opts.handoff_after_frames = 14;  // mid-campaign, deterministically
  primary_opts.handoff_port = standby.port();
  auto primary = std::make_unique<net::Coordinator>(spec, db, primary_opts);
  const std::uint16_t port = primary->port();

  auto merged = std::async(std::launch::async, [&primary, &standby] {
    try {
      return primary->run();
    } catch (const net::CoordinatorHandoff&) {
      // The old incarnation is gone for good — its listen port closes, so a
      // straggler that missed the redirect gets a refused connect (and then
      // reassignment), never a silent hang against a dead coordinator. The
      // journal carries the progress across the succession.
      primary.reset();
      return standby.run();
    }
  });

  std::vector<std::thread> threads;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = id;
    wopts.secret = "failover-demo";
    wopts.backoff_base_seconds = 0.01;
    wopts.connect_timeout_seconds = 1.0;  // the primary's port dies mid-test
    threads.emplace_back([&db, wopts] {
      try {
        net::Worker worker(db, wopts);
        (void)worker.run();
      } catch (const Error&) {
      }
    });
  }
  expect_same_result(merged.get(), baseline);
  for (std::thread& t : threads) t.join();

  // The journal the succession ran on is strict-clean and campaign-bound.
  const net::JournalContents contents = net::read_journal(journal, digest,
                                                          /*strict=*/true);
  EXPECT_EQ(contents.total_injections, baseline.records.size());
  std::remove(journal.c_str());
}

TEST(FleetFailover, RestartedCoordinatorResumesACompletedPrefix) {
  // Coordinator "crash" modeled directly at the journal layer: a first run
  // journals a prefix of the campaign, a second coordinator on the same
  // journal finishes only the gaps — and the merge equals the single-process
  // result bit-for-bit.
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  const std::uint64_t digest = fi::campaign_config_digest(model, spec.config);
  const std::string journal = testing::TempDir() + "/ssresf_restart.ssjl";
  std::remove(journal.c_str());

  // Pre-seed the journal with a "previous incarnation's" accepted batches:
  // the genuinely computed records for a prefix of the plan.
  {
    std::vector<fi::ShardRecord> prefix;
    for (std::size_t i = 0; i < baseline.records.size() / 2; ++i) {
      prefix.push_back({i, baseline.records[i]});
    }
    net::JournalWriter writer(journal, digest, baseline.records.size());
    writer.append(0, prefix);
  }

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  copts.journal_path = journal;
  net::Coordinator restarted(spec, db, copts);
  const std::uint16_t port = restarted.port();
  auto merged = std::async(std::launch::async,
                           [&restarted] { return restarted.run(); });
  std::thread worker_thread([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    net::Worker worker(db, wopts);
    (void)worker.run();
  });
  const fi::CampaignResult result = merged.get();
  worker_thread.join();
  expect_same_result(result, baseline);
  std::remove(journal.c_str());
}

// --- torn journal tails at exact frame boundaries -----------------------------

TEST(FleetJournal, TornExactlyAtTheEntryCrcBoundaryIsCutCleanly) {
  const std::string path = testing::TempDir() + "/ssresf_journal_torn_crc.ssjl";
  const std::uint64_t digest = 0x2222;
  {
    net::JournalWriter writer(path, digest, 8);
    writer.append(0, some_records(0, 2));
    writer.append(4, some_records(4, 2));
  }
  const std::vector<std::uint8_t> clean = slurp(path);

  // The on-disk entry frame and the kJournalSync replication unit are the
  // same bytes — the invariant the whole replica design rests on.
  const std::vector<std::uint8_t> entry1 =
      net::encode_journal_entry(0, some_records(0, 2));
  ASSERT_LT(21 + entry1.size(), clean.size());
  EXPECT_TRUE(std::equal(entry1.begin(), entry1.end(), clean.begin() + 21));

  // Truncation exactly between the second entry's 13-byte header (marker |
  // len | CRC) and its first payload byte: the nastiest tear, since marker,
  // length, and CRC all read back plausibly — only the missing payload gives
  // it away.
  const std::size_t entry2_offset = 21 + entry1.size();
  std::vector<std::uint8_t> torn(clean.begin(),
                                 clean.begin() + static_cast<std::ptrdiff_t>(
                                                     entry2_offset + 13));
  spit(path, torn);
  net::JournalContents cut = net::read_journal(path, digest, /*strict=*/false);
  ASSERT_EQ(cut.entries.size(), 1u);
  EXPECT_EQ(cut.valid_bytes, entry2_offset);
  EXPECT_THROW((void)net::read_journal(path, digest, true), InvalidArgument);

  // A tear inside the CRC field itself cuts at the same point.
  torn.resize(entry2_offset + 5);
  spit(path, torn);
  cut = net::read_journal(path, digest, false);
  ASSERT_EQ(cut.entries.size(), 1u);
  EXPECT_EQ(cut.valid_bytes, entry2_offset);

  // Resume truncates the debris and appends cleanly: strict again after.
  {
    net::JournalWriter writer = net::JournalWriter::resume(path, cut);
    writer.append(4, some_records(4, 2));
  }
  EXPECT_EQ(net::read_journal(path, digest, true).entries.size(), 2u);
  std::remove(path.c_str());
}

// --- crash-safe artifact publication ------------------------------------------

TEST(FleetCrashSafety, AtomicWriteLeavesTheOldFileOrNoFileOnCrash) {
  const std::string path = testing::TempDir() + "/ssresf_atomic.bin";
  std::remove(path.c_str());
  const std::vector<std::uint8_t> v1 = {1, 2, 3, 4};
  const std::vector<std::uint8_t> v2 = {9, 9, 9, 9, 9};

  // Killed during the very first write: no file at all — never a torn one.
  util::atomic_write_file(path, v1, /*crash_before_rename=*/true);
  EXPECT_FALSE(std::ifstream(path).good());

  util::atomic_write_file(path, v1);
  EXPECT_EQ(slurp(path), v1);

  // Killed during an overwrite: the complete old file survives.
  util::atomic_write_file(path, v2, /*crash_before_rename=*/true);
  EXPECT_EQ(slurp(path), v1);

  // The interrupted attempt's tmp debris does not block the next one.
  util::atomic_write_file(path, v2);
  EXPECT_EQ(slurp(path), v2);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(FleetCrashSafety, KilledShardOverwriteLeavesTheOldFileReadable) {
  // Every artifact writer (.ssfs shard, .ssgb bundle, .ssmd model) publishes
  // through atomic_write_file; drive the seam against a real reader once.
  const std::string path = testing::TempDir() + "/ssresf_crash.ssfs";
  std::remove(path.c_str());
  fi::ShardFileMeta meta;
  meta.seed = 3;
  meta.total_injections = 4;
  meta.config_digest = 0x77;
  meta.num_records = 4;
  fi::write_shard_file(path, meta, some_records(0, 4));
  const std::vector<std::uint8_t> published = slurp(path);

  // "kill -9" between the replacement's flush and its rename: the bytes on
  // disk are still the old artifact, byte for byte, and still parse.
  const std::vector<std::uint8_t> junk(37, 0xAB);
  util::atomic_write_file(path, junk, /*crash_before_rename=*/true);
  EXPECT_EQ(slurp(path), published);
  fi::ShardFileReader reader(path);
  EXPECT_EQ(reader.meta().config_digest, 0x77u);
  std::size_t n = 0;
  for (fi::ShardRecord r; reader.next(r);) ++n;
  EXPECT_EQ(n, 4u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- coordinator election -----------------------------------------------------

static_assert(std::is_base_of_v<net::WorkerRejected, net::StaleCoordinator>,
              "a stale coordinator must be final when elections are off");

TEST(FleetElection, StalePrimaryIsRejectedByTheEpochGuard) {
  // A coordinator at epoch 0 against a worker that has lived through an
  // election (epoch 1): the MAC binds the epoch, so the deposed primary is
  // refused outright — split-brain is impossible, not just unlikely.
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  copts.secret = "epoch-demo";  // the guard works on authenticated fleets too
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();
  auto merged = std::async(std::launch::async,
                           [&coordinator] { return coordinator.run(); });

  std::thread stale([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.secret = "epoch-demo";
    wopts.initial_epoch = 1;  // this worker followed an elected coordinator
    net::Worker worker(db, wopts);
    EXPECT_THROW((void)worker.run(), net::StaleCoordinator);
  });
  std::thread good([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.secret = "epoch-demo";
    net::Worker worker(db, wopts);
    (void)worker.run();
  });
  expect_same_result(merged.get(), baseline);
  stale.join();
  good.join();
}

TEST(FleetElection, PrefixReplicaPromotionRequeuesTheUnmirroredTail) {
  // The promotion half in isolation: a replica that is a strict PREFIX of
  // the dead primary's journal (its final batches were flushed locally but
  // died before the kJournalSync broadcast). The promoted coordinator must
  // serve every injection the replica does not cover — and nothing it does.
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  const std::uint64_t digest = fi::campaign_config_digest(model, spec.config);
  const std::string journal = testing::TempDir() + "/ssresf_replica.ssjl";
  std::remove(journal.c_str());

  const std::size_t half = baseline.records.size() / 2;
  ASSERT_GE(half, 2u);
  std::vector<fi::ShardRecord> first, second;
  for (std::size_t i = 0; i < half / 2; ++i) {
    first.push_back({i, baseline.records[i]});
  }
  for (std::size_t i = half / 2; i < half; ++i) {
    second.push_back({i, baseline.records[i]});
  }
  std::vector<std::vector<std::uint8_t>> entries;
  entries.push_back(net::encode_journal_entry(0, first));
  entries.push_back(net::encode_journal_entry(half / 2, second));
  net::write_replica_journal(journal, digest, baseline.records.size(), entries);

  // The persisted replica IS a journal: strict-clean and campaign-bound.
  const net::JournalContents replayed =
      net::read_journal(journal, digest, /*strict=*/true);
  ASSERT_EQ(replayed.entries.size(), 2u);
  EXPECT_EQ(replayed.total_injections, baseline.records.size());

  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  copts.journal_path = journal;
  copts.epoch = 1;  // a promoted worker serves at its known epoch + 1
  net::Coordinator promoted(spec, db, copts);
  const std::uint16_t port = promoted.port();
  auto merged =
      std::async(std::launch::async, [&promoted] { return promoted.run(); });
  std::thread worker_thread([&db, port] {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    net::Worker worker(db, wopts);
    (void)worker.run();
  });
  expect_same_result(merged.get(), baseline);
  worker_thread.join();

  // The finished journal = the replica prefix + only the re-queued tail:
  // every injection has exactly one record across all entries.
  const net::JournalContents finished = net::read_journal(journal, digest,
                                                          /*strict=*/true);
  std::size_t journaled = 0;
  for (const net::JournalEntry& e : finished.entries) {
    journaled += e.records.size();
  }
  EXPECT_EQ(journaled, baseline.records.size());
  std::remove(journal.c_str());
}

TEST(FleetElection, LostRosterUpdateStillElectsOneWinner) {
  // Two live peer services, queried exactly as an election round queries
  // them. In each case the coordinator died with a kPeers update unread by
  // someone, so the two workers hold different rosters; every case must
  // still yield exactly one worker that elects itself.
  net::PeerService s1(1, 0, true);
  net::PeerService s2(2, 0, true);
  const net::PeerEntry w1{1, "127.0.0.1", s1.port()};
  const net::PeerEntry w2{2, "127.0.0.1", s2.port()};
  using Roster = std::vector<net::PeerEntry>;
  const auto listed = [](std::uint64_t id, const Roster& roster) {
    return std::any_of(roster.begin(), roster.end(),
                       [&](const net::PeerEntry& e) { return e.worker_id == id; });
  };
  // Both hold the golden bundle; the rest is what each worker publishes.
  const auto elect = [&](const Roster& r1, const Roster& r2) {
    s1.set_candidacy(listed(1, r1), 0, r1.size());
    s2.set_candidacy(listed(2, r2), 0, r2.size());
    const auto winner_of = [&](std::uint64_t self, const Roster& roster) {
      std::vector<std::optional<net::PeerInfoMsg>> replies(roster.size());
      for (std::size_t i = 0; i < roster.size(); ++i) {
        if (roster[i].worker_id == self) continue;
        replies[i] = net::query_peer(roster[i].host, roster[i].peer_port, self,
                                     5.0);
        EXPECT_TRUE(replies[i].has_value());
      }
      return net::election_winner(self, listed(self, roster), 0, roster,
                                  replies);
    };
    return std::make_pair(winner_of(1, r1), winner_of(2, r2));
  };
  const std::optional<std::uint64_t> one = 1;
  const std::optional<std::uint64_t> two = 2;
  const std::optional<std::uint64_t> none;

  // Everyone read the last update: the lowest id wins.
  EXPECT_EQ(elect({w2, w1}, {w2, w1}), std::make_pair(one, one));
  // Admitted 2 then 1, and worker 2 never read the update listing worker 1.
  // Each worker's lowest-id candidate would be itself; the prefix both
  // hold is [2], so both elect worker 2.
  EXPECT_EQ(elect({w2, w1}, {w2}), std::make_pair(two, two));
  // Admitted 1 then 2, and worker 1 missed the update listing worker 2.
  EXPECT_EQ(elect({w1}, {w1, w2}), std::make_pair(one, one));
  // Worker 1 was never admitted (its kReady died with the coordinator): it
  // does not stand, and defers to the only candidate it knows, or to
  // nobody.
  EXPECT_EQ(elect({w2}, {w2}), std::make_pair(two, two));
  EXPECT_EQ(elect({}, {w2}), std::make_pair(none, two));

  // A reply from another epoch is not a candidate in this one.
  s2.set_candidacy(true, 0, 1);
  s2.set_promoted(3, 0);
  std::vector<std::optional<net::PeerInfoMsg>> replies(2);
  replies[0] = net::query_peer(w2.host, w2.peer_port, 1, 5.0);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_EQ(net::election_winner(1, true, 0, {w2, w1}, replies), one);
}

TEST(FleetElection, WorkersElectAReplacementAfterCoordinatorDeath) {
  // The tentpole, end to end and fully deterministic: the coordinator is
  // SIGKILLed (in-process stand-in: connections and listener dropped cold
  // after a fixed frame count), NO standby exists, and the workers heal the
  // fleet on their own — the lowest-id survivor promotes itself on its
  // journal replica, the other follows via a peer query, and the merged
  // result is byte-identical to the single-process campaign.
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 8u);

  const std::string journal = testing::TempDir() + "/ssresf_election.ssjl";
  const std::string promote_journal =
      testing::TempDir() + "/ssresf_election_promoted.ssjl";
  std::remove(journal.c_str());
  std::remove(promote_journal.c_str());

  // The expected winner is defined by the fleet the coordinator announced:
  // the death is armed once the roster lists both workers (worker 1 wins
  // only if it was admitted), and each worker's first records frame (send
  // op 3, after hello, auth and ready) is held back 500 ms so that the
  // campaign is still running when the slower worker is admitted.
  // LostRosterUpdateStillElectsOneWinner covers deaths that cut a roster
  // update short.
  net::CoordinatorDeathSchedule death(/*die_at_frame=*/6,
                                      /*armed_at_roster=*/2);
  net::ChaosSchedule join_gate[2];
  for (net::ChaosSchedule& gate : join_gate) {
    gate.add({3, net::ChaosKind::kDelayMs, 500});
  }
  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  copts.secret = "election-demo";
  copts.journal_path = journal;
  copts.death = &death;
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();
  auto doomed = std::async(std::launch::async, [&coordinator] {
    try {
      (void)coordinator.run();
      return false;  // survived — the schedule never fired
    } catch (const net::CoordinatorKilled&) {
      return true;
    }
  });

  const auto make_worker = [&](std::uint64_t id) {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = id;
    wopts.secret = "election-demo";
    wopts.connect_timeout_seconds = 0.3;
    wopts.backoff_base_seconds = 0.01;
    wopts.backoff_cap_seconds = 0.1;
    wopts.max_reconnect_attempts = 20;
    wopts.election_timeout_seconds = 0.05;
    wopts.promote_journal_path = promote_journal;
    wopts.chaos = &join_gate[id - 1];
    // The slow-worker detector is not under test. The promoted coordinator
    // ships 1-injection chunks whose cost follows each strike's activity,
    // and under a sanitizer's slowdown two heavy ones got a worker
    // quarantined, aborting the run.
    wopts.chunk_seconds_override = 0.01;
    return std::make_unique<net::Worker>(db, wopts);
  };
  const std::unique_ptr<net::Worker> w1 = make_worker(1);
  const std::unique_ptr<net::Worker> w2 = make_worker(2);
  std::thread t1([&w1] { (void)w1->run(); });
  std::thread t2([&w2] { (void)w2->run(); });
  t1.join();
  t2.join();
  EXPECT_TRUE(doomed.get()) << "the death schedule must fire mid-campaign";

  // Exactly one winner — the lowest id — and ITS process holds the merged
  // result the dead primary would have emitted, byte for byte.
  EXPECT_TRUE(w1->promoted());
  EXPECT_FALSE(w2->promoted());
  ASSERT_TRUE(w1->promoted_result().has_value());
  expect_same_result(*w1->promoted_result(), baseline);

  // The promotion journal is a strict-clean, campaign-bound journal whose
  // entries cover every injection exactly once (replica prefix + re-queued
  // tail).
  const std::uint64_t digest = fi::campaign_config_digest(model, spec.config);
  const net::JournalContents finished =
      net::read_journal(promote_journal, digest, /*strict=*/true);
  EXPECT_EQ(finished.total_injections, baseline.records.size());
  std::size_t journaled = 0;
  for (const net::JournalEntry& e : finished.entries) {
    journaled += e.records.size();
  }
  EXPECT_EQ(journaled, baseline.records.size());

  std::remove(journal.c_str());
  std::remove(promote_journal.c_str());
}

TEST(FleetElection, CandidacyIsPublishedBeforeThePeerElects) {
  // Worker 2 runs its election long before worker 1 starts one, so it
  // judges worker 1 by what worker 1's peer service published while the
  // coordinator was alive. The coordinator keeps no journal, so no
  // kJournalSync frame refreshes that after the roster arrives: worker 1
  // must publish its candidacy when the roster listing it lands, or worker
  // 2 elects itself.
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);

  const std::string promote_journal =
      testing::TempDir() + "/ssresf_candidacy_promoted.ssjl";
  std::remove(promote_journal.c_str());

  net::CoordinatorDeathSchedule death(/*die_at_frame=*/4,
                                      /*armed_at_roster=*/2);
  net::ChaosSchedule join_gate[2];
  for (net::ChaosSchedule& gate : join_gate) {
    gate.add({3, net::ChaosKind::kDelayMs, 500});
  }
  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = 2;
  copts.secret = "election-demo";
  copts.death = &death;
  net::Coordinator coordinator(spec, db, copts);
  const std::uint16_t port = coordinator.port();
  auto doomed = std::async(std::launch::async, [&coordinator] {
    try {
      (void)coordinator.run();
      return false;
    } catch (const net::CoordinatorKilled&) {
      return true;
    }
  });

  const auto make_worker = [&](std::uint64_t id, double election_timeout) {
    net::WorkerOptions wopts;
    wopts.host = "127.0.0.1";
    wopts.port = port;
    wopts.worker_id = id;
    wopts.secret = "election-demo";
    wopts.connect_timeout_seconds = 0.3;
    wopts.backoff_base_seconds = 0.01;
    wopts.backoff_cap_seconds = 0.1;
    wopts.max_reconnect_attempts = 40;
    wopts.election_timeout_seconds = election_timeout;
    wopts.promote_journal_path = promote_journal;
    wopts.chaos = &join_gate[id - 1];
    // The slow-worker detector is not under test. The promoted coordinator
    // ships 1-injection chunks whose cost follows each strike's activity,
    // and under a sanitizer's slowdown two heavy ones got a worker
    // quarantined, aborting the run.
    wopts.chunk_seconds_override = 0.01;
    return std::make_unique<net::Worker>(db, wopts);
  };
  const std::unique_ptr<net::Worker> w1 = make_worker(1, 0.5);
  const std::unique_ptr<net::Worker> w2 = make_worker(2, 0.05);
  std::thread t1([&w1] { (void)w1->run(); });
  std::thread t2([&w2] { (void)w2->run(); });
  t1.join();
  t2.join();
  EXPECT_TRUE(doomed.get()) << "the death schedule must fire mid-campaign";

  EXPECT_TRUE(w1->promoted());
  EXPECT_FALSE(w2->promoted());
  ASSERT_TRUE(w1->promoted_result().has_value());
  expect_same_result(*w1->promoted_result(), baseline);
  std::remove(promote_journal.c_str());
}

}  // namespace
}  // namespace ssresf
