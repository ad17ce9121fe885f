// The socket campaign transport: frame codec (round trip, corruption and
// truncation rejection via the payload digest), campaign spec codec, golden
// bundle shipping (workers skip all golden simulation without changing a
// record), and the coordinator/worker loop — loopback equivalence for
// several worker counts, byte-identical results under mid-campaign worker
// defection (the deterministic stand-in for a killed worker), and the
// streaming run into a columnar record file.
#include <gtest/gtest.h>

#include <bit>
#include <future>
#include <thread>

#include "fi/campaign_exec.h"
#include "fi/golden_bundle.h"
#include "fi/record_store.h"
#include "fi/shard.h"
#include "net/auth.h"
#include "net/coordinator.h"
#include "net/protocol.h"
#include "net/worker.h"
#include "util/error.h"

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

// --- frame codec --------------------------------------------------------------

TEST(NetProtocol, FrameRoundTripsAcrossASocket) {
  auto [a, b] = util::Socket::pair();
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{1000}, std::size_t{70000}}) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    net::send_frame(a, net::MsgType::kRecords, payload);
    net::Frame frame;
    ASSERT_TRUE(net::recv_frame(b, frame));
    EXPECT_EQ(frame.type, net::MsgType::kRecords);
    EXPECT_EQ(frame.payload, payload);
  }
  // Clean EOF between frames reads as false, not an error.
  a.close();
  net::Frame frame;
  EXPECT_FALSE(net::recv_frame(b, frame));
}

TEST(NetProtocol, FrameRejectsCorruptPayload) {
  auto [a, b] = util::Socket::pair();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire =
      net::encode_frame(net::MsgType::kWork, payload);
  wire.back() ^= 0x40;  // flip one payload bit
  a.send_all(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_THROW((void)net::recv_frame(b, frame), InvalidArgument);
}

TEST(NetProtocol, FrameRejectsTruncationBadMagicAndBadLength) {
  {
    // Connection dropped inside a frame: an Error, never a clean EOF.
    auto [a, b] = util::Socket::pair();
    const std::vector<std::uint8_t> payload(100, 0xab);
    const std::vector<std::uint8_t> wire =
        net::encode_frame(net::MsgType::kWork, payload);
    a.send_all(wire.data(), wire.size() - 40);
    a.close();
    net::Frame frame;
    EXPECT_THROW((void)net::recv_frame(b, frame), Error);
  }
  {
    auto [a, b] = util::Socket::pair();
    std::vector<std::uint8_t> wire = net::encode_frame(net::MsgType::kWork, {});
    wire[0] = 'X';
    a.send_all(wire.data(), wire.size());
    net::Frame frame;
    EXPECT_THROW((void)net::recv_frame(b, frame), InvalidArgument);
  }
  {
    // A length above the cap is rejected before any allocation.
    auto [a, b] = util::Socket::pair();
    std::vector<std::uint8_t> wire = net::encode_frame(net::MsgType::kWork, {});
    wire[6] = 0xff;
    wire[7] = 0xff;
    wire[8] = 0xff;
    wire[9] = 0xff;
    a.send_all(wire.data(), wire.size());
    net::Frame frame;
    EXPECT_THROW((void)net::recv_frame(b, frame), InvalidArgument);
  }
}

// --- campaign spec ------------------------------------------------------------

TEST(NetProtocol, CampaignSpecRoundTrips) {
  net::CampaignSpec spec = small_spec(99);
  spec.workload = "fibonacci";
  spec.isa = "RV32IM";
  spec.bus = "apb";
  spec.mem_kb = 4;
  spec.config.engine = sim::EngineKind::kBitParallel;
  spec.config.environment.let = 1e-7;  // must survive exactly (digest input)
  spec.config.sampling.fraction = 0.12345678901234567;

  util::ByteWriter out;
  spec.encode(out);
  const std::vector<std::uint8_t> bytes = out.data();
  util::ByteReader in(bytes);
  const net::CampaignSpec back = net::CampaignSpec::decode(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.workload, spec.workload);
  EXPECT_EQ(back.isa, spec.isa);
  EXPECT_EQ(back.bus, spec.bus);
  EXPECT_EQ(back.mem_kb, spec.mem_kb);
  EXPECT_EQ(back.config.engine, spec.config.engine);
  EXPECT_EQ(back.config.seed, spec.config.seed);
  EXPECT_EQ(back.config.environment.let, spec.config.environment.let);
  EXPECT_EQ(back.config.environment.flux, spec.config.environment.flux);
  EXPECT_EQ(back.config.sampling.fraction, spec.config.sampling.fraction);
  EXPECT_EQ(back.config.sampling.weighting, spec.config.sampling.weighting);
  EXPECT_EQ(back.config.clustering.num_clusters,
            spec.config.clustering.num_clusters);
  EXPECT_EQ(back.config.run_cycles, spec.config.run_cycles);
  EXPECT_EQ(back.config.max_cycles, spec.config.max_cycles);

  // The rebuilt (model, config) digests identically — the worker-side check.
  const soc::SocModel model = net::build_model(small_spec(7));
  EXPECT_EQ(fi::campaign_config_digest(model, small_spec(7).config),
            fi::campaign_config_digest(model, small_spec(7).config));

  util::ByteReader truncated(std::span<const std::uint8_t>(bytes.data(), 5));
  EXPECT_THROW((void)net::CampaignSpec::decode(truncated), Error);
}

TEST(NetProtocol, RecordsMessageRoundTrips) {
  net::RecordsMsg msg;
  msg.start = 10;
  msg.count = 3;
  for (std::uint64_t i = 10; i < 13; ++i) {
    fi::ShardRecord r;
    r.index = i;
    r.record.event.target.kind = radiation::FaultKind::kSeu;
    r.record.event.target.cell = netlist::CellId{42};
    r.record.event.time_ps = 1000 * i;
    r.record.cluster = 2;
    r.record.module_class = netlist::ModuleClass::kCpu;
    r.record.soft_error = i % 2 == 0;
    r.record.first_mismatch_cycle = i;
    msg.records.push_back(r);
  }
  const std::vector<std::uint8_t> payload = net::encode_payload(msg);
  util::ByteReader in(payload);
  const net::RecordsMsg back = net::RecordsMsg::decode(in);
  EXPECT_EQ(back.start, msg.start);
  EXPECT_EQ(back.count, msg.count);
  ASSERT_EQ(back.records.size(), msg.records.size());
  for (std::size_t i = 0; i < msg.records.size(); ++i) {
    EXPECT_EQ(back.records[i], msg.records[i]);
  }
}

TEST(NetProtocol, HelloMessageRoundTripsAdvertisedHost) {
  net::HelloMsg hello;
  hello.worker_id = 7;
  hello.nonce = 3;
  hello.peer_port = 45123;
  hello.peer_host = "worker-3.rack2.example";
  const std::vector<std::uint8_t> payload = net::encode_payload(hello);
  util::ByteReader in(payload);
  const net::HelloMsg back = net::HelloMsg::decode(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.worker_id, hello.worker_id);
  EXPECT_EQ(back.nonce, hello.nonce);
  EXPECT_EQ(back.peer_port, hello.peer_port);
  EXPECT_EQ(back.peer_host, hello.peer_host);

  net::HelloMsg plain;
  plain.worker_id = 1;
  const std::vector<std::uint8_t> p2 = net::encode_payload(plain);
  util::ByteReader in2(p2);
  EXPECT_TRUE(net::HelloMsg::decode(in2).peer_host.empty());
}

TEST(NetProtocol, PredictMessagesRoundTripBitExactly) {
  net::PredictRequestMsg req;
  req.alias = "checksum-demo";
  req.config_digest = 0x0123456789abcdefull;
  // Mixed columns: small integral doubles (varint-coded), a fractional
  // column, and awkward values that must NOT take the varint path.
  req.rows = {{3.0, 0.25, -0.0, 1e300},
              {7.0, 0.5, 4.0, -2.5},
              {1048576.0, 0.125, 9.0, 0.1}};
  req.num_rows = req.rows.size();
  req.num_features = req.rows[0].size();
  const std::vector<std::uint8_t> payload = net::encode_payload(req);
  util::ByteReader in(payload);
  const net::PredictRequestMsg back = net::PredictRequestMsg::decode(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(back.alias, req.alias);
  EXPECT_EQ(back.config_digest, req.config_digest);
  ASSERT_EQ(back.rows.size(), req.rows.size());
  for (std::size_t r = 0; r < req.rows.size(); ++r) {
    for (std::size_t c = 0; c < req.rows[r].size(); ++c) {
      // Bit-exact, including the sign of -0.0.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.rows[r][c]),
                std::bit_cast<std::uint64_t>(req.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }

  net::PredictResponseMsg resp;
  resp.alias = "checksum-demo";
  resp.config_digest = req.config_digest;
  resp.generation = 12;
  resp.labels = {1, -1, -1, 1, 1, -1, 1, -1, -1};
  const std::vector<std::uint8_t> rp = net::encode_payload(resp);
  util::ByteReader rin(rp);
  const net::PredictResponseMsg rback = net::PredictResponseMsg::decode(rin);
  EXPECT_TRUE(rin.at_end());
  EXPECT_EQ(rback.alias, resp.alias);
  EXPECT_EQ(rback.generation, resp.generation);
  EXPECT_EQ(rback.labels, resp.labels);
}

TEST(NetProtocol, PredictRequestRejectsHostileShapes) {
  net::PredictRequestMsg req;
  req.alias = "m";
  req.rows = {{1.0, 2.0}};
  req.num_rows = 1;
  req.num_features = 2;
  std::vector<std::uint8_t> payload = net::encode_payload(req);
  // A row count far beyond the payload must refuse before allocating.
  {
    util::ByteWriter out;
    out.sized_bytes("m", 1);
    out.fixed64(0);
    out.varint(net::kMaxPredictRows);  // claims 2^20 rows
    out.varint(1);
    const std::vector<std::uint8_t> hostile = out.data();
    util::ByteReader in(hostile);
    EXPECT_THROW((void)net::PredictRequestMsg::decode(in), Error);
  }
  // Truncated mid-columns.
  util::ByteReader trunc(
      std::span<const std::uint8_t>(payload.data(), payload.size() - 3));
  EXPECT_THROW((void)net::PredictRequestMsg::decode(trunc), Error);
}

// --- golden bundle ------------------------------------------------------------

TEST(GoldenBundle, ShippedGoldenWorkProducesIdenticalRecords) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig& config = spec.config;

  fi::detail::CampaignPrep full =
      fi::detail::prepare_campaign(model, config, db, /*for_execution=*/true);
  ASSERT_FALSE(full.ladder.empty());

  // Extract, push through the byte codec, and rebuild on the "worker".
  util::ByteWriter out;
  fi::encode_golden_bundle(out, fi::extract_golden_bundle(model, config, full));
  const std::vector<std::uint8_t> bytes = out.data();
  util::ByteReader in(bytes);
  const fi::GoldenBundle bundle = fi::decode_golden_bundle(in);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(bundle.run_cycles, full.run_cycles);
  EXPECT_EQ(bundle.rungs.size(), full.ladder.size());

  fi::detail::CampaignPrep shipped =
      fi::prepare_campaign_with_bundle(model, config, db, bundle);
  ASSERT_EQ(shipped.plan.size(), full.plan.size());
  EXPECT_EQ(shipped.total_cycles, full.total_cycles);
  EXPECT_EQ(shipped.golden_trace.num_cycles(), full.golden_trace.num_cycles());
  ASSERT_EQ(shipped.ladder.size(), full.ladder.size());

  // Execute everything on both preps: byte-identical records.
  std::vector<std::size_t> owned(full.plan.size());
  for (std::size_t i = 0; i < owned.size(); ++i) owned[i] = i;
  std::vector<fi::InjectionRecord> a(full.plan.size());
  std::vector<fi::InjectionRecord> b(full.plan.size());
  fi::detail::execute_injections(model, config, full, owned, a);
  fi::detail::execute_injections(model, config, shipped, owned, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "record " << i;
  }
}

TEST(GoldenBundle, FileIsDigestBound) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();

  fi::detail::CampaignPrep prep = fi::detail::prepare_campaign(
      model, spec.config, db, /*for_execution=*/true);
  const std::string path =
      testing::TempDir() + "/ssresf_bundle_digest.ssgb";
  fi::write_golden_bundle_file(path, model, spec.config,
                               fi::extract_golden_bundle(model, spec.config,
                                                         prep));
  // Same campaign: loads.
  const fi::GoldenBundle ok =
      fi::read_golden_bundle_file(path, model, spec.config);
  EXPECT_EQ(ok.run_cycles, prep.run_cycles);
  // Different seed: digest mismatch, loud failure.
  EXPECT_THROW(
      (void)fi::read_golden_bundle_file(path, model, small_spec(18).config),
      InvalidArgument);
  std::remove(path.c_str());
}

// --- coordinator / worker loopback --------------------------------------------

/// Runs `workers` against a coordinator on `port`, one thread each.
std::vector<std::thread> start_workers(const radiation::SoftErrorDatabase& db,
                                       std::uint16_t port,
                                       std::vector<net::WorkerOptions> workers) {
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (net::WorkerOptions wopts : workers) {
    wopts.host = "127.0.0.1";
    wopts.port = port;
    // Tight fleet knobs: a worker that loses the race against the campaign's
    // completion (connects after the listener closed) must give up in
    // seconds, not ride the production-sized retry ladder past the test
    // timeout. The equivalence assertions never involve such a straggler.
    wopts.connect_timeout_seconds = 1.0;
    wopts.backoff_base_seconds = 0.01;
    threads.emplace_back([&db, wopts] {
      try {
        net::Worker worker(db, wopts);
        (void)worker.run();
      } catch (const Error&) {
        // A defecting worker's abrupt exit is part of the test.
      }
    });
  }
  return threads;
}

net::CoordinatorOptions loopback_options(std::uint64_t chunk) {
  net::CoordinatorOptions copts;
  copts.port = 0;
  copts.loopback_only = true;
  copts.chunk_injections = chunk;
  return copts;
}

fi::CampaignResult run_loopback(const net::CampaignSpec& spec,
                                const radiation::SoftErrorDatabase& db,
                                std::vector<net::WorkerOptions> workers,
                                std::uint64_t chunk = 0) {
  net::Coordinator coordinator(spec, db, loopback_options(chunk));
  auto result = std::async(std::launch::async,
                           [&coordinator] { return coordinator.run(); });
  std::vector<std::thread> threads =
      start_workers(db, coordinator.port(), std::move(workers));
  const fi::CampaignResult merged = result.get();
  for (std::thread& t : threads) t.join();
  return merged;
}

TEST(NetCampaign, LoopbackMatchesSingleProcessForSeveralWorkerCounts) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 8u);

  for (const int n : {1, 2, 5}) {
    std::vector<net::WorkerOptions> workers(static_cast<std::size_t>(n));
    const fi::CampaignResult merged = run_loopback(spec, db, workers);
    expect_same_result(merged, baseline);
  }
}

TEST(NetCampaign, BitParallelWorkersMatchSingleProcess) {
  net::CampaignSpec spec = small_spec();
  spec.config.engine = sim::EngineKind::kBitParallel;
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);

  std::vector<net::WorkerOptions> workers(2);
  const fi::CampaignResult merged = run_loopback(spec, db, workers);
  expect_same_result(merged, baseline);
}

TEST(NetCampaign, WorkerDefectionMidCampaignIsReassignedDeterministically) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 12u);

  // Small chunks force many work items; one worker completes a single chunk
  // and then vanishes with its next one unanswered (= killed mid-chunk), one
  // leaves cleanly after two chunks, one soldiers on. The coordinator must
  // reassign the lost chunk and still merge a byte-identical result.
  std::vector<net::WorkerOptions> workers(3);
  workers[0].defect_after_chunks = 1;
  workers[1].max_chunks = 2;
  const fi::CampaignResult merged =
      run_loopback(spec, db, workers, /*chunk=*/3);
  expect_same_result(merged, baseline);
}

TEST(NetCampaign, StreamingRunIntoColumnarFileMatchesSingleProcess) {
  const net::CampaignSpec spec = small_spec();
  const soc::SocModel model = net::build_model(spec);
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult baseline = fi::run_campaign(model, spec.config, db);
  ASSERT_GT(baseline.records.size(), 8u);

  // Small chunks and three workers: batches reach the sink in arrival
  // order, so the writer must cut non-overlapping chunks the reader can
  // replay in ascending order.
  const std::string path = testing::TempDir() + "/ssresf_net_stream.ssfs";
  net::Coordinator coordinator(spec, db, loopback_options(/*chunk=*/3));
  fi::CampaignStats stats;
  {
    fi::ColumnarFileWriter writer(path, /*chunk_rows=*/4);
    auto result = std::async(std::launch::async, [&coordinator, &writer] {
      return coordinator.run(writer);
    });
    std::vector<std::thread> threads = start_workers(
        db, coordinator.port(), std::vector<net::WorkerOptions>(3));
    stats = result.get();
    for (std::thread& t : threads) t.join();
  }

  fi::ColumnarFileSource source(path);
  std::vector<fi::ShardRecord> read_back;
  fi::RecordBatch batch;
  while (source.next_batch(batch)) {
    for (std::size_t i = 0; i < batch.row_count(); ++i) {
      read_back.push_back(batch.row(i));
    }
  }
  ASSERT_EQ(read_back.size(), baseline.records.size());
  for (std::size_t i = 0; i < read_back.size(); ++i) {
    EXPECT_EQ(read_back[i].index, i);
    EXPECT_EQ(read_back[i].record, baseline.records[i]) << "record " << i;
  }
  EXPECT_EQ(stats.num_records, baseline.records.size());
  EXPECT_EQ(stats.chip_ser_percent, baseline.chip_ser_percent);
  EXPECT_EQ(stats.set_xsect_cm2, baseline.set_xsect_cm2);
  EXPECT_EQ(stats.seu_xsect_cm2, baseline.seu_xsect_cm2);
  EXPECT_EQ(stats.golden_cycles, baseline.golden_cycles);
  EXPECT_EQ(stats.clock_period_ps, baseline.clock_period_ps);
  ASSERT_EQ(stats.clusters.size(), baseline.clusters.size());
  for (std::size_t k = 0; k < stats.clusters.size(); ++k) {
    EXPECT_EQ(stats.clusters[k].samples, baseline.clusters[k].samples);
    EXPECT_EQ(stats.clusters[k].errors, baseline.clusters[k].errors);
    EXPECT_EQ(stats.clusters[k].ser_percent, baseline.clusters[k].ser_percent);
  }
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    EXPECT_EQ(stats.per_class[c].samples, baseline.per_class[c].samples);
    EXPECT_EQ(stats.per_class[c].errors, baseline.per_class[c].errors);
  }
  std::remove(path.c_str());
}

TEST(NetCampaign, WorkerRejectsDigestMismatch) {
  // A hand-rolled "coordinator" that serves a campaign whose digest does not
  // match the spec it sent: the worker must refuse before simulating.
  const auto db = radiation::SoftErrorDatabase::default_database();
  util::ListenSocket listener(0, /*loopback_only=*/true);
  std::thread fake([&listener] {
    util::Socket conn = listener.accept();
    net::Frame frame;
    ASSERT_TRUE(net::recv_frame(conn, frame));
    ASSERT_EQ(frame.type, net::MsgType::kHello);
    util::ByteReader hello_payload(frame.payload);
    const net::HelloMsg hello = net::HelloMsg::decode(hello_payload);

    // Pass the (open-fleet) handshake honestly; only the digest lies.
    net::ChallengeMsg challenge;
    challenge.nonce = net::fresh_nonce();
    challenge.config_digest = 0xdeadbeef;  // wrong on purpose
    challenge.mac =
        net::handshake_mac("", net::kProtocolVersion, challenge.config_digest,
                           challenge.epoch, hello.nonce);
    net::send_frame(conn, net::MsgType::kChallenge,
                    net::encode_payload(challenge));
    ASSERT_TRUE(net::recv_frame(conn, frame));
    ASSERT_EQ(frame.type, net::MsgType::kAuth);

    net::CampaignMsg campaign;
    campaign.spec = small_spec();
    campaign.config_digest = 0xdeadbeef;
    campaign.total_injections = 1;
    net::send_frame(conn, net::MsgType::kCampaign,
                    net::encode_payload(campaign));
    // The worker replies with an error frame before throwing.
    net::Frame reply;
    if (net::recv_frame(conn, reply)) {
      EXPECT_EQ(reply.type, net::MsgType::kError);
    }
  });
  net::WorkerOptions wopts;
  wopts.host = "127.0.0.1";
  wopts.port = listener.port();
  net::Worker worker(db, wopts);
  EXPECT_THROW((void)worker.run(), InvalidArgument);
  fake.join();
}

TEST(NetSocket, ConnectTimesOutAgainstNoListener) {
  // Port 1 on loopback: nothing listens there in any sane environment.
  EXPECT_THROW((void)util::connect_to("127.0.0.1", 1, 0.2), Error);
}

// --- per-frame receive deadline (slow-loris guard) ---------------------------

TEST(NetProtocol, FrameDeadlineAcceptsATimelyFrame) {
  auto [a, b] = util::Socket::pair();
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  net::send_frame(a, net::MsgType::kWork, payload);
  net::Frame frame;
  ASSERT_TRUE(net::recv_frame_deadline(b, frame, 5.0));
  EXPECT_EQ(frame.type, net::MsgType::kWork);
  EXPECT_EQ(frame.payload, payload);
  // Clean EOF between frames is still a false, not a deadline error.
  a.close();
  EXPECT_FALSE(net::recv_frame_deadline(b, frame, 5.0));
}

TEST(NetProtocol, FrameDeadlineRejectsASlowLorisPeer) {
  // The peer trickles a frame header and then stalls forever with the
  // connection open: a plain blocking read would hang the coordinator's
  // whole dispatch loop. The deadline read throws with byte progress.
  auto [a, b] = util::Socket::pair();
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::MsgType::kWork, std::vector<std::uint8_t>(64, 1));
  a.send_all(wire.data(), 10);  // header + 0 of 64 payload bytes, then silence
  net::Frame frame;
  try {
    (void)net::recv_frame_deadline(b, frame, 0.2);
    FAIL() << "expected the deadline to fire";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
}

TEST(NetProtocol, FrameDeadlineRejectsNonPositiveDeadline) {
  auto [a, b] = util::Socket::pair();
  net::Frame frame;
  EXPECT_THROW((void)net::recv_frame_deadline(b, frame, 0.0), InvalidArgument);
  EXPECT_THROW((void)net::recv_frame_deadline(b, frame, -1.0), InvalidArgument);
}

}  // namespace
}  // namespace ssresf
