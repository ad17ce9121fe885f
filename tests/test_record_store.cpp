// The chunked columnar `.ssfs` v2 store and the RecordSink / RecordSource
// streaming API. Under test: round trips (empty through multi-chunk),
// arrival-order appends replayed in ascending order, corruption detection
// that names the offending byte offset, v1/v2 interchangeability behind
// open_record_source, the begin() lifecycle of deferred sinks, and the
// central equivalence contract — streaming CampaignStats bit-identical to
// the vector path's CampaignResult, with bounded peak memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/session.h"
#include "fi/campaign.h"
#include "fi/record_store.h"
#include "fi/sensitivity.h"
#include "fi/shard.h"
#include "soc/programs.h"
#include "util/error.h"

namespace ssresf {
namespace {

namespace fs = std::filesystem;

soc::SocModel small_soc() {
  soc::SocConfig cfg;
  cfg.name = "store-soc";
  cfg.mem_bytes = 8 * 1024;
  cfg.cpu_isa = "RV32I";
  cfg.bus = soc::BusProtocol::kAhb;
  const soc::Workload w = soc::checksum_workload(6);
  const soc::Program programs[] = {soc::assemble(w.source)};
  return soc::build_soc(cfg, programs);
}

fi::CampaignConfig small_campaign(std::uint64_t seed = 17) {
  fi::CampaignConfig cfg;
  cfg.engine = sim::EngineKind::kLevelized;
  cfg.clustering.num_clusters = 5;
  cfg.sampling.fraction = 0.01;
  cfg.sampling.min_per_cluster = 4;
  cfg.sampling.max_per_cluster = 10;
  cfg.sampling.memory_macro_draws = 8;
  cfg.seed = seed;
  cfg.threads = 2;
  return cfg;
}

std::string scratch_file(const std::string& name) {
  return (fs::path(testing::TempDir()) / ("ssresf_rs_" + name)).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Deterministic synthetic record for codec-level tests (no campaign run).
fi::ShardRecord make_record(std::uint64_t index) {
  fi::ShardRecord r;
  r.index = index;
  r.record.event.target.kind =
      static_cast<radiation::FaultKind>(index % 3);
  r.record.event.target.cell = netlist::CellId(
      static_cast<std::uint32_t>((index * 37) % 1000));
  r.record.event.target.word = static_cast<std::uint32_t>(index % 64);
  r.record.event.target.bit = static_cast<std::uint32_t>(index % 32);
  r.record.event.time_ps = 1000 + index * 13;
  r.record.event.set_width_ps = static_cast<std::uint32_t>(50 + index % 7);
  r.record.cluster = static_cast<int>(index % 5);
  r.record.module_class = static_cast<netlist::ModuleClass>(index % 5);
  r.record.soft_error = (index % 3) == 0;
  r.record.first_mismatch_cycle = r.record.soft_error ? index % 97 : 0;
  return r;
}

std::vector<fi::ShardRecord> make_records(std::uint64_t count,
                                          std::uint64_t first = 0,
                                          std::uint64_t stride = 1) {
  std::vector<fi::ShardRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(make_record(first + i * stride));
  }
  return out;
}

fi::ShardFileMeta synthetic_meta(std::uint64_t total) {
  fi::ShardFileMeta meta;
  meta.seed = 42;
  meta.shard_index = 0;
  meta.shard_count = 1;
  meta.total_injections = total;
  meta.config_digest = 0xabcdef0123456789ull;
  meta.num_records = total;
  return meta;
}

std::vector<fi::ShardRecord> drain(fi::RecordSource& source) {
  std::vector<fi::ShardRecord> out;
  fi::RecordBatch batch;
  while (source.next_batch(batch)) {
    for (std::size_t i = 0; i < batch.row_count(); ++i) {
      out.push_back(batch.row(i));
    }
  }
  return out;
}

/// VmRSS in KiB from /proc/self/status, or -1 when unavailable.
long vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

TEST(RecordStore, V2RoundTripsEmptyOneRowAndMultiChunk) {
  for (const std::uint64_t count : {0ull, 1ull, 23ull}) {
    const std::vector<fi::ShardRecord> records = make_records(count);
    const std::string path =
        scratch_file("roundtrip_" + std::to_string(count) + ".ssfs");
    // chunk_rows=3 forces multiple chunks for the 23-row case.
    fi::write_columnar_file(path, synthetic_meta(count), records,
                            /*chunk_rows=*/3);

    fi::ColumnarFileSource source(path);
    EXPECT_EQ(source.meta().seed, 42u);
    EXPECT_EQ(source.meta().total_injections, count);
    EXPECT_EQ(source.meta().config_digest, 0xabcdef0123456789ull);
    EXPECT_EQ(source.meta().num_records, count);
    EXPECT_EQ(source.total_records(), count);

    const std::vector<fi::ShardRecord> back = drain(source);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i], records[i]) << "record " << i;
    }
    fs::remove(path);
  }
}

TEST(RecordStore, ArrivalOrderAppendsReadBackAscending) {
  // A socket coordinator appends in worker-arrival order: contiguous runs
  // from different shards interleave. The reader must replay the whole
  // stream ascending regardless.
  const std::string path = scratch_file("arrival.ssfs");
  fi::ColumnarFileWriter writer(path, synthetic_meta(30), /*chunk_rows=*/4);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> runs = {
      {20, 10}, {0, 10}, {10, 10}};  // {first, count}, out of order
  for (const auto& [first, count] : runs) {
    fi::RecordBatch batch;
    for (std::uint64_t i = 0; i < count; ++i) {
      batch.push_back(make_record(first + i));
    }
    writer.append(batch);
  }
  writer.flush();
  EXPECT_EQ(writer.records_written(), 30u);

  fi::ColumnarFileSource source(path);
  const std::vector<fi::ShardRecord> back = drain(source);
  ASSERT_EQ(back.size(), 30u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].index, i);
    EXPECT_EQ(back[i], make_record(i)) << "record " << i;
  }
  fs::remove(path);
}

TEST(RecordStore, StrideShardStreamsKeepChunksFull) {
  // A stride-N shard emits non-contiguous indices (0, 3, 6, ...). Chunks
  // are only cut early on a *broken run between batches* — within one
  // producer's stream the gaps must still coalesce into full chunks, not
  // degenerate into per-batch chunks.
  const std::string path = scratch_file("stride.ssfs");
  const std::vector<fi::ShardRecord> records =
      make_records(64, /*first=*/0, /*stride=*/3);
  fi::ShardFileMeta meta = synthetic_meta(64);
  meta.total_injections = 64 * 3;
  fi::write_columnar_file(path, meta, records, /*chunk_rows=*/16);

  fi::ColumnarFileSource source(path);
  fi::RecordBatch batch;
  std::size_t chunks = 0;
  std::size_t rows = 0;
  while (source.next_batch(batch)) {
    ++chunks;
    rows += batch.row_count();
  }
  EXPECT_EQ(rows, 64u);
  EXPECT_EQ(chunks, 4u);  // 64 rows / 16 per chunk, despite the index gaps
  fs::remove(path);
}

TEST(RecordStore, WriterRejectsInterleavedBatches) {
  const std::string path = scratch_file("interleave.ssfs");
  fi::ColumnarFileWriter writer(path, synthetic_meta(20), /*chunk_rows=*/4);
  fi::RecordBatch first;
  for (std::uint64_t i = 0; i < 10; ++i) first.push_back(make_record(i));
  writer.append(first);
  fi::RecordBatch overlap;
  for (std::uint64_t i = 5; i < 8; ++i) overlap.push_back(make_record(i));
  // The overlap only becomes visible at chunk granularity: flush detects it.
  EXPECT_THROW(
      {
        writer.append(overlap);
        writer.flush();
      },
      InvalidArgument);

  fi::RecordBatch descending;
  descending.index = {3, 1};
  descending.kind = {0, 0};
  descending.cell = {0, 0};
  descending.word = {0, 0};
  descending.bit = {0, 0};
  descending.time_ps = {0, 0};
  descending.set_width_ps = {0, 0};
  descending.cluster = {0, 0};
  descending.module_class = {0, 0};
  descending.soft_error = {0, 0};
  descending.first_mismatch_cycle = {0, 0};
  fi::ColumnarFileWriter writer2(scratch_file("desc.ssfs"),
                                 synthetic_meta(4));
  EXPECT_THROW(writer2.append(descending), InvalidArgument);
}

TEST(RecordStore, ChunkCorruptionNamesTheByteOffset) {
  const std::string path = scratch_file("corrupt_chunk.ssfs");
  fi::write_columnar_file(path, synthetic_meta(8), make_records(8),
                          /*chunk_rows=*/8);
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 21u);
  // Layout from the tail: "SSF2" tail magic (4) preceded by fixed64
  // footer_len (8); the chunk's fixed64 checksum sits just before the
  // footer, and the payload just before that.
  std::uint64_t footer_len = 0;
  for (int i = 0; i < 8; ++i) {
    footer_len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                      bytes[bytes.size() - 12 + static_cast<std::size_t>(i)]))
                  << (8 * i);
  }
  const std::size_t footer_start = bytes.size() - 12 - footer_len;
  const std::size_t payload_byte = footer_start - 9;  // inside the payload
  bytes[payload_byte] = static_cast<char>(bytes[payload_byte] ^ 0x40);
  write_file(path, bytes);

  fi::ColumnarFileSource source(path);  // footer still intact
  fi::RecordBatch batch;
  try {
    (void)source.next_batch(batch);
    FAIL() << "corrupted chunk was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST(RecordStore, SelectRangeReadsOnlyIntersectingChunks) {
  const std::string path = scratch_file("pushdown_range.ssfs");
  const std::vector<fi::ShardRecord> records = make_records(64);
  fi::write_columnar_file(path, synthetic_meta(64), records,
                          /*chunk_rows=*/16);  // chunks [0,15] ... [48,63]

  fi::ColumnarFileSource source(path);
  source.select_range(20, 40);
  const std::vector<fi::ShardRecord> back = drain(source);
  ASSERT_EQ(back.size(), 20u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].index, 20 + i);
  }
  // [20, 40) intersects chunks [16,31] and [32,47] only.
  EXPECT_EQ(source.chunks_decoded(), 2u);
  EXPECT_EQ(source.chunks_skipped(), 2u);

  // Reading must not start before select_range.
  fi::ColumnarFileSource late(path);
  fi::RecordBatch batch;
  ASSERT_TRUE(late.next_batch(batch));
  EXPECT_THROW(late.select_range(0, 1), InternalError);
  fs::remove(path);
}

TEST(RecordStore, SelectRangeNeverDecodesSkippedChunks) {
  const std::string path = scratch_file("pushdown_corrupt.ssfs");
  fi::write_columnar_file(path, synthetic_meta(24), make_records(24),
                          /*chunk_rows=*/8);  // chunks [0,7] [8,15] [16,23]
  // Flip a payload byte of the LAST chunk (it sits just before the footer —
  // same offset math as ChunkCorruptionNamesTheByteOffset).
  std::string bytes = read_file(path);
  std::uint64_t footer_len = 0;
  for (int i = 0; i < 8; ++i) {
    footer_len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                      bytes[bytes.size() - 12 + static_cast<std::size_t>(i)]))
                  << (8 * i);
  }
  const std::size_t footer_start = bytes.size() - 12 - footer_len;
  const std::size_t payload_byte = footer_start - 9;
  bytes[payload_byte] = static_cast<char>(bytes[payload_byte] ^ 0x40);
  write_file(path, bytes);

  // A full scan trips over the corruption...
  fi::ColumnarFileSource full(path);
  EXPECT_THROW(drain(full), InvalidArgument);

  // ...but a range read that excludes the corrupt chunk never touches it:
  // the chunk is skipped from the footer index alone, so its checksum is
  // never even computed.
  fi::ColumnarFileSource ranged(path);
  ranged.select_range(0, 16);
  const std::vector<fi::ShardRecord> back = drain(ranged);
  ASSERT_EQ(back.size(), 16u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].index, i);
  }
  EXPECT_EQ(ranged.chunks_decoded(), 2u);
  EXPECT_EQ(ranged.chunks_skipped(), 1u);
  fs::remove(path);
}

TEST(RecordStore, SelectRangeHandlesIndexGapsAndEmptyWindows) {
  const std::string path = scratch_file("pushdown_gaps.ssfs");
  // Indices 0,4,8,...,28 in chunks spanning [0,12] and [16,28].
  fi::write_columnar_file(path, synthetic_meta(29),
                          make_records(8, /*first=*/0, /*stride=*/4),
                          /*chunk_rows=*/4);

  // The window falls into the gap between the chunks: both skipped.
  fi::ColumnarFileSource gap(path);
  gap.select_range(13, 16);
  EXPECT_TRUE(drain(gap).empty());
  EXPECT_EQ(gap.chunks_decoded(), 0u);
  EXPECT_EQ(gap.chunks_skipped(), 2u);

  // The window intersects a chunk's span but none of its actual indices:
  // the chunk decodes, trims to nothing, and the stream ends cleanly.
  fi::ColumnarFileSource sparse(path);
  sparse.select_range(1, 4);
  EXPECT_TRUE(drain(sparse).empty());
  EXPECT_EQ(sparse.chunks_decoded(), 1u);
  EXPECT_EQ(sparse.chunks_skipped(), 1u);

  // Degenerate lo >= hi window: everything is skipped up front.
  fi::ColumnarFileSource empty(path);
  empty.select_range(8, 8);
  EXPECT_TRUE(drain(empty).empty());
  EXPECT_EQ(empty.chunks_decoded(), 0u);
  EXPECT_EQ(empty.chunks_skipped(), 2u);

  // Row-level trim across a chunk boundary.
  fi::ColumnarFileSource trim(path);
  trim.select_range(4, 21);
  const std::vector<fi::ShardRecord> back = drain(trim);
  ASSERT_EQ(back.size(), 5u);  // 4, 8, 12, 16, 20
  EXPECT_EQ(back.front().index, 4u);
  EXPECT_EQ(back.back().index, 20u);
  EXPECT_EQ(trim.chunks_decoded(), 2u);
  fs::remove(path);
}

TEST(RecordStore, FooterAndTailCorruptionAreRejected) {
  const std::string path = scratch_file("corrupt_footer.ssfs");
  fi::write_columnar_file(path, synthetic_meta(8), make_records(8));
  const std::string pristine = read_file(path);
  std::uint64_t footer_len = 0;
  for (int i = 0; i < 8; ++i) {
    footer_len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                      pristine[pristine.size() - 12 +
                               static_cast<std::size_t>(i)]))
                  << (8 * i);
  }
  const std::size_t footer_start = pristine.size() - 12 - footer_len;

  std::string bad_footer = pristine;
  bad_footer[footer_start] = static_cast<char>(bad_footer[footer_start] ^ 1);
  write_file(path, bad_footer);
  try {
    fi::ColumnarFileSource source(path);
    FAIL() << "corrupted footer was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("footer digest mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }

  std::string bad_tail = pristine;
  bad_tail.back() = static_cast<char>(bad_tail.back() ^ 1);
  write_file(path, bad_tail);
  EXPECT_THROW(fi::ColumnarFileSource bad(path), InvalidArgument);

  // Truncation loses the tail; open_record_source still sniffs the magic
  // but the columnar parse must fail loudly.
  write_file(path, pristine.substr(0, pristine.size() / 2));
  EXPECT_THROW((void)fi::open_record_source(path), InvalidArgument);
  fs::remove(path);
}

TEST(RecordStore, DeferredWriterAndVectorSinkFollowBeginLifecycle) {
  const std::string path = scratch_file("deferred.ssfs");
  fi::ColumnarFileWriter writer(path);  // no metadata yet
  fi::RecordBatch batch;
  batch.push_back(make_record(0));
  EXPECT_THROW(writer.append(batch), InternalError);
  EXPECT_THROW(writer.flush(), InternalError);
  writer.begin(synthetic_meta(1));
  writer.append(batch);
  writer.flush();
  fi::ColumnarFileSource source(path);
  EXPECT_EQ(source.meta().seed, 42u);
  EXPECT_EQ(source.total_records(), 1u);
  fs::remove(path);

  fi::VectorSink sink;  // deferred sizing
  sink.begin(synthetic_meta(3));
  fi::RecordBatch three;
  for (std::uint64_t i = 0; i < 3; ++i) three.push_back(make_record(i));
  sink.append(three);
  EXPECT_EQ(sink.filled(), 3u);
  EXPECT_EQ(sink.take_records().size(), 3u);

  fi::VectorSink strict;
  strict.begin(synthetic_meta(2));
  fi::RecordBatch out_of_range;
  out_of_range.push_back(make_record(5));
  EXPECT_THROW(strict.append(out_of_range), InvalidArgument);
  fi::RecordBatch dup;
  dup.push_back(make_record(0));
  strict.append(dup);
  EXPECT_THROW(strict.append(dup), InvalidArgument);
  EXPECT_THROW((void)strict.take_records(), InternalError);  // slot 1 unfilled
}

TEST(RecordStore, V1AndV2FilesAreInterchangeableSources) {
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig config = small_campaign();
  const fi::ShardRunResult run =
      fi::run_campaign_shard(model, config, db, {1, 2});
  ASSERT_FALSE(run.records.empty());

  fi::ShardFileMeta meta;
  meta.seed = config.seed;
  meta.shard_index = 1;
  meta.shard_count = 2;
  meta.total_injections = run.total_injections;
  meta.config_digest = fi::campaign_config_digest(model, config);
  meta.num_records = run.records.size();

  const std::string v1_path = scratch_file("interop_v1.ssfs");
  const std::string v2_path = scratch_file("interop_v2.ssfs");
  fi::write_shard_file(v1_path, meta, run.records);
  fi::write_columnar_file(v2_path, meta, run.records, /*chunk_rows=*/7);

  const auto v1 = fi::open_record_source(v1_path);
  const auto v2 = fi::open_record_source(v2_path);
  EXPECT_EQ(v1->meta().config_digest, v2->meta().config_digest);
  EXPECT_EQ(v1->meta().total_injections, v2->meta().total_injections);
  const std::vector<fi::ShardRecord> r1 = drain(*v1);
  const std::vector<fi::ShardRecord> r2 = drain(*v2);
  ASSERT_EQ(r1.size(), run.records.size());
  ASSERT_EQ(r2.size(), run.records.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i], run.records[i]) << "v1 record " << i;
    EXPECT_EQ(r2[i], run.records[i]) << "v2 record " << i;
  }
  fs::remove(v1_path);
  fs::remove(v2_path);
}

TEST(RecordStore, MixedVersionMergeMatchesSingleProcess) {
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig config = small_campaign();
  const fi::CampaignResult baseline = fi::run_campaign(model, config, db);

  std::vector<std::string> paths;
  for (int k = 0; k < 3; ++k) {
    const fi::ShardRunResult run =
        fi::run_campaign_shard(model, config, db, {k, 3});
    fi::ShardFileMeta meta;
    meta.seed = config.seed;
    meta.shard_index = static_cast<std::uint32_t>(k);
    meta.shard_count = 3;
    meta.total_injections = run.total_injections;
    meta.config_digest = fi::campaign_config_digest(model, config);
    meta.num_records = run.records.size();
    const std::string path =
        scratch_file("mixed_" + std::to_string(k) + ".ssfs");
    // Shard 1 stays v1; the rest are v2 — the merge must not care.
    if (k == 1) {
      fi::write_shard_file(path, meta, run.records);
    } else {
      fi::write_columnar_file(path, meta, run.records, /*chunk_rows=*/5);
    }
    paths.push_back(path);
  }

  fi::VectorSink sink;
  const fi::CampaignStats stats =
      fi::merge_record_files(model, config, db, paths, sink);
  const std::vector<fi::InjectionRecord> merged = sink.take_records();
  ASSERT_EQ(merged.size(), baseline.records.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], baseline.records[i]) << "record " << i;
  }
  EXPECT_EQ(stats.num_records, baseline.records.size());
  EXPECT_EQ(stats.chip_ser_percent, baseline.chip_ser_percent);
  EXPECT_EQ(stats.set_xsect_cm2, baseline.set_xsect_cm2);
  EXPECT_EQ(stats.seu_xsect_cm2, baseline.seu_xsect_cm2);

  // Digest binding: a v2 file written for seed 17 must not merge under a
  // different campaign.
  const fi::CampaignConfig other = small_campaign(18);
  fi::VectorSink reject;
  EXPECT_THROW(
      (void)fi::merge_record_files(model, other, db, paths, reject),
      InvalidArgument);
  for (const std::string& path : paths) fs::remove(path);
}

TEST(RecordStore, StreamingStatsAreBitIdenticalToVectorPath) {
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig config = small_campaign();

  const fi::CampaignResult baseline = fi::run_campaign(model, config, db);
  fi::VectorSink sink;
  const fi::CampaignStats stats = fi::run_campaign(model, config, db, sink);

  // Records identical through the sink...
  const std::vector<fi::InjectionRecord> streamed = sink.take_records();
  ASSERT_EQ(streamed.size(), baseline.records.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], baseline.records[i]) << "record " << i;
  }
  // ...and every double bit-identical (EXPECT_EQ, not NEAR: both paths
  // reduce the same integer counters through one shared kernel).
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
    EXPECT_EQ(stats.clusters[k].propagation_ratio,
              baseline.clusters[k].propagation_ratio);
    EXPECT_EQ(stats.clusters[k].xsect_cm2, baseline.clusters[k].xsect_cm2);
    EXPECT_EQ(stats.clusters[k].ser_percent, baseline.clusters[k].ser_percent);
  }
  for (std::size_t c = 0; c < netlist::kModuleClassCount; ++c) {
    EXPECT_EQ(stats.per_class[c].samples, baseline.per_class[c].samples);
    EXPECT_EQ(stats.per_class[c].errors, baseline.per_class[c].errors);
  }

  // The sensitivity CSV — the artifact CI byte-diffs — must be identical
  // whether written from the CampaignResult or the streamed CampaignStats.
  const std::string csv_vector = scratch_file("sens_vector.csv");
  const std::string csv_stream = scratch_file("sens_stream.csv");
  fi::write_sensitivity_csv(csv_vector, baseline);
  fi::write_sensitivity_csv(csv_stream, stats);
  EXPECT_EQ(read_file(csv_vector), read_file(csv_stream));
  fs::remove(csv_vector);
  fs::remove(csv_stream);
}

TEST(RecordStore, SourceBasedDatasetMatchesLegacyBuildDataset) {
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig config = small_campaign();
  const fi::CampaignResult campaign = fi::run_campaign(model, config, db);

  const ml::Dataset legacy = core::build_dataset(model, campaign);
  fi::VectorSource source(campaign.records, /*batch_rows=*/16);
  const ml::Dataset streamed =
      core::build_dataset(model, source, campaign.clusters);

  ASSERT_EQ(streamed.size(), legacy.size());
  ASSERT_EQ(streamed.num_features(), legacy.num_features());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed.label(i), legacy.label(i)) << "row " << i;
    const auto a = streamed.row(i);
    const auto b = legacy.row(i);
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j], b[j]) << "row " << i << " feature " << j;
    }
  }
}

TEST(RecordStore, RecordsCsvFromSourceMatchesVectorWriter) {
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignConfig config = small_campaign();
  const fi::CampaignResult campaign = fi::run_campaign(model, config, db);

  const std::string csv_vector = scratch_file("records_vector.csv");
  const std::string csv_source = scratch_file("records_source.csv");
  fi::write_records_csv(csv_vector, campaign.records);

  std::vector<fi::ShardRecord> tagged;
  for (std::size_t i = 0; i < campaign.records.size(); ++i) {
    tagged.push_back({i, campaign.records[i]});
  }
  const std::string store = scratch_file("records_csv.ssfs");
  fi::ShardFileMeta meta;
  meta.seed = config.seed;
  meta.total_injections = campaign.records.size();
  meta.config_digest = fi::campaign_config_digest(model, config);
  meta.num_records = campaign.records.size();
  fi::write_columnar_file(store, meta, tagged, /*chunk_rows=*/11);
  const auto source = fi::open_record_source(store);
  fi::write_records_csv(csv_source, *source);

  EXPECT_EQ(read_file(csv_vector), read_file(csv_source));
  fs::remove(csv_vector);
  fs::remove(csv_source);
  fs::remove(store);
}

TEST(RecordStore, CsvWritersReportWriteErrorsNamingThePath) {
  // A full disk must fail the write loudly, not leave a truncated CSV behind
  // a normal return. /dev/full accepts the open and fails every flush.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  const soc::SocModel model = small_soc();
  const auto db = radiation::SoftErrorDatabase::default_database();
  const fi::CampaignResult campaign =
      fi::run_campaign(model, small_campaign(), db);
  const auto expect_write_error = [](const char* writer, const auto& write) {
    try {
      write();
      ADD_FAILURE() << writer << ": write to /dev/full reported success";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << writer << ": " << e.what();
    }
  };
  const std::string full = "/dev/full";
  expect_write_error("records (vector)", [&] {
    fi::write_records_csv(full, campaign.records);
  });
  expect_write_error("records (source)", [&] {
    fi::VectorSource source(campaign.records);
    fi::write_records_csv(full, source);
  });
  expect_write_error("sensitivity",
                     [&] { fi::write_sensitivity_csv(full, campaign); });
  expect_write_error("predictions", [&] {
    core::write_predictions_csv(full, model, core::SessionPrediction{});
  });
}

TEST(RecordStore, ScaleSmokeBoundsPeakMemoryByChunkSize) {
  // The acceptance criterion of the streaming redesign: pushing a campaign
  // two orders of magnitude past the unit-test sizes (>= 100k records, here
  // 1M) through writer + reader must not grow resident memory anywhere
  // near the ~50 MiB a resident vector<InjectionRecord> of that plan would
  // cost — the writer buffers one chunk, the reader decodes one chunk.
  constexpr std::uint64_t kRows = 1'000'000;
  constexpr std::size_t kChunkRows = 4096;
  constexpr std::uint64_t kBatchRows = 1000;

  const std::string path = scratch_file("scale.ssfs");
  const long rss_before_kb = vm_rss_kb();

  fi::ColumnarFileWriter writer(path, synthetic_meta(kRows), kChunkRows);
  fi::RecordBatch batch;
  for (std::uint64_t first = 0; first < kRows; first += kBatchRows) {
    batch.clear();
    for (std::uint64_t i = first; i < first + kBatchRows; ++i) {
      batch.push_back(make_record(i));
    }
    writer.append(batch);
  }
  writer.flush();
  EXPECT_EQ(writer.records_written(), kRows);
  // The writer's own buffering never exceeds one chunk.
  EXPECT_LE(writer.peak_buffered_rows(), kChunkRows);

  fi::ColumnarFileSource source(path);
  std::uint64_t rows = 0;
  std::uint64_t next_index = 0;
  fi::RecordBatch in;
  while (source.next_batch(in)) {
    EXPECT_LE(in.row_count(), kChunkRows);
    EXPECT_EQ(in.index.front(), next_index);
    rows += in.row_count();
    next_index = in.index.back() + 1;
  }
  EXPECT_EQ(rows, kRows);

  const long rss_after_kb = vm_rss_kb();
  if (rss_before_kb < 0 || rss_after_kb < 0) {
    GTEST_SKIP() << "/proc/self/status unavailable";
  }
  // Generous allowance for allocator slack — but far below the resident
  // record vector the v1 flow would have required for this plan.
  EXPECT_LT(rss_after_kb - rss_before_kb, 24 * 1024)
      << "streaming path grew RSS by " << (rss_after_kb - rss_before_kb)
      << " KiB";
  fs::remove(path);
}

}  // namespace
}  // namespace ssresf
