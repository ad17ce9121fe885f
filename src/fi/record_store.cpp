#include "fi/record_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "fi/campaign_exec.h"
#include "util/bytes.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/timer.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ssresf::fi {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'F', 'S'};
constexpr char kTailMagic[4] = {'S', 'S', 'F', '2'};
constexpr std::uint8_t kVersionColumnar = 2;
constexpr std::uint8_t kChunkMarker = 0xC5;
// footer_len fixed64 + tail magic — the fixed suffix the reader seeks from.
constexpr std::uint64_t kTailBytes = 12;

// Zigzag maps small signed deltas (cell ids and strike times wobble around
// the previous row's value) to small unsigned varints.
std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Columns of one chunk, in payload order. Index first (delta-1, like the
/// v1 stream), then the event fields, then the outcome fields.
void encode_columns(util::ByteWriter& out, const RecordBatch& b) {
  const std::size_t n = b.row_count();
  for (std::size_t i = 0; i < n; ++i) {
    out.varint(i == 0 ? b.index[0] : b.index[i] - b.index[i - 1] - 1);
  }
  out.bytes(b.kind.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0) {
      out.varint(b.cell[0]);
    } else {
      out.varint(zigzag_encode(static_cast<std::int64_t>(b.cell[i]) -
                               static_cast<std::int64_t>(b.cell[i - 1])));
    }
  }
  for (std::size_t i = 0; i < n; ++i) out.varint(b.word[i]);
  for (std::size_t i = 0; i < n; ++i) out.varint(b.bit[i]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0) {
      out.varint(b.time_ps[0]);
    } else {
      out.varint(zigzag_encode(static_cast<std::int64_t>(b.time_ps[i]) -
                               static_cast<std::int64_t>(b.time_ps[i - 1])));
    }
  }
  for (std::size_t i = 0; i < n; ++i) out.varint(b.set_width_ps[i]);
  for (std::size_t i = 0; i < n; ++i) out.varint(b.cluster[i]);
  out.bytes(b.module_class.data(), n);
  std::vector<std::uint8_t> soft((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (b.soft_error[i] != 0) soft[i / 8] |= std::uint8_t{1} << (i % 8);
  }
  out.bytes(soft.data(), soft.size());
  for (std::size_t i = 0; i < n; ++i) out.varint(b.first_mismatch_cycle[i]);
}

void decode_columns(util::ByteReader& in, std::uint64_t rows, RecordBatch& out,
                    const std::string& where) {
  out.clear();
  out.reserve(static_cast<std::size_t>(rows));
  const std::size_t n = static_cast<std::size_t>(rows);
  try {
    out.index.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t delta = in.varint();
      out.index[i] = i == 0 ? delta : out.index[i - 1] + delta + 1;
    }
    out.kind.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.kind[i] = in.u8();
      if (out.kind[i] > static_cast<std::uint8_t>(radiation::FaultKind::kMemBit)) {
        throw InvalidArgument(where + ": bad fault kind");
      }
    }
    out.cell.resize(n);
    std::int64_t cell = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cell = i == 0 ? static_cast<std::int64_t>(in.varint())
                    : cell + zigzag_decode(in.varint());
      if (cell < 0 || cell > 0xffffffffll) {
        throw InvalidArgument(where + ": cell id out of range");
      }
      out.cell[i] = static_cast<std::uint32_t>(cell);
    }
    out.word.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.word[i] = static_cast<std::uint32_t>(in.varint());
    }
    out.bit.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.bit[i] = static_cast<std::uint32_t>(in.varint());
    }
    out.time_ps.resize(n);
    std::int64_t t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t = i == 0 ? static_cast<std::int64_t>(in.varint())
                 : t + zigzag_decode(in.varint());
      if (t < 0) throw InvalidArgument(where + ": negative strike time");
      out.time_ps[i] = static_cast<std::uint64_t>(t);
    }
    out.set_width_ps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.set_width_ps[i] = static_cast<std::uint32_t>(in.varint());
    }
    out.cluster.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.cluster[i] = static_cast<std::uint32_t>(in.varint());
    }
    out.module_class.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.module_class[i] = in.u8();
      if (out.module_class[i] >= netlist::kModuleClassCount) {
        throw InvalidArgument(where + ": bad module class");
      }
    }
    out.soft_error.resize(n);
    std::vector<std::uint8_t> soft((n + 7) / 8);
    for (std::uint8_t& byte : soft) byte = in.u8();
    for (std::size_t i = 0; i < n; ++i) {
      out.soft_error[i] = (soft[i / 8] >> (i % 8)) & 1;
    }
    out.first_mismatch_cycle.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.first_mismatch_cycle[i] = in.varint();
    }
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error& e) {
    throw InvalidArgument(where + ": " + e.what());
  }
  if (!in.at_end()) {
    throw InvalidArgument(where + ": trailing bytes after columns");
  }
}

}  // namespace

// --- RecordBatch ------------------------------------------------------------

void RecordBatch::clear() {
  index.clear();
  kind.clear();
  cell.clear();
  word.clear();
  bit.clear();
  time_ps.clear();
  set_width_ps.clear();
  cluster.clear();
  module_class.clear();
  soft_error.clear();
  first_mismatch_cycle.clear();
}

void RecordBatch::reserve(std::size_t rows) {
  index.reserve(rows);
  kind.reserve(rows);
  cell.reserve(rows);
  word.reserve(rows);
  bit.reserve(rows);
  time_ps.reserve(rows);
  set_width_ps.reserve(rows);
  cluster.reserve(rows);
  module_class.reserve(rows);
  soft_error.reserve(rows);
  first_mismatch_cycle.reserve(rows);
}

void RecordBatch::push_back(std::uint64_t global_index,
                            const InjectionRecord& record) {
  const radiation::FaultEvent& e = record.event;
  index.push_back(global_index);
  kind.push_back(static_cast<std::uint8_t>(e.target.kind));
  cell.push_back(e.target.cell.index());
  word.push_back(e.target.word);
  bit.push_back(e.target.bit);
  time_ps.push_back(e.time_ps);
  set_width_ps.push_back(e.set_width_ps);
  cluster.push_back(static_cast<std::uint32_t>(record.cluster));
  module_class.push_back(static_cast<std::uint8_t>(record.module_class));
  soft_error.push_back(record.soft_error ? 1 : 0);
  first_mismatch_cycle.push_back(record.first_mismatch_cycle);
}

ShardRecord RecordBatch::row(std::size_t i) const {
  if (i >= row_count()) {
    throw InvalidArgument("record batch: row out of range");
  }
  if (kind[i] > static_cast<std::uint8_t>(radiation::FaultKind::kMemBit)) {
    throw InvalidArgument("record batch: bad fault kind");
  }
  if (module_class[i] >= netlist::kModuleClassCount) {
    throw InvalidArgument("record batch: bad module class");
  }
  ShardRecord r;
  r.index = index[i];
  radiation::FaultEvent& e = r.record.event;
  e.target.kind = static_cast<radiation::FaultKind>(kind[i]);
  e.target.cell = netlist::CellId{cell[i]};
  e.target.word = word[i];
  e.target.bit = bit[i];
  e.time_ps = time_ps[i];
  e.set_width_ps = set_width_ps[i];
  r.record.cluster = static_cast<int>(cluster[i]);
  r.record.module_class = static_cast<netlist::ModuleClass>(module_class[i]);
  r.record.soft_error = soft_error[i] != 0;
  r.record.first_mismatch_cycle =
      static_cast<std::size_t>(first_mismatch_cycle[i]);
  return r;
}

// --- VectorSink / VectorSource ----------------------------------------------

VectorSink::VectorSink(std::uint64_t plan_size)
    : records_(static_cast<std::size_t>(plan_size)),
      seen_(static_cast<std::size_t>(plan_size), 0),
      sized_(true) {}

void VectorSink::begin(const ShardFileMeta& meta) {
  if (sized_) return;  // plan size fixed at construction wins
  records_.resize(static_cast<std::size_t>(meta.total_injections));
  seen_.assign(static_cast<std::size_t>(meta.total_injections), 0);
  sized_ = true;
}

void VectorSink::append(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.row_count(); ++i) {
    const std::uint64_t gi = batch.index[i];
    if (gi >= records_.size()) {
      throw InvalidArgument("record stream: index " + std::to_string(gi) +
                            " out of range (plan size " +
                            std::to_string(records_.size()) + ")");
    }
    if (seen_[static_cast<std::size_t>(gi)] != 0) {
      throw InvalidArgument("duplicate record for injection " +
                            std::to_string(gi));
    }
    seen_[static_cast<std::size_t>(gi)] = 1;
    records_[static_cast<std::size_t>(gi)] = batch.row(i).record;
    ++filled_;
  }
}

std::vector<InjectionRecord> VectorSink::take_records() {
  if (filled_ != records_.size()) {
    throw InternalError("record stream covered " + std::to_string(filled_) +
                        " of " + std::to_string(records_.size()) +
                        " injections");
  }
  return std::move(records_);
}

VectorSource::VectorSource(std::span<const InjectionRecord> records,
                           std::size_t batch_rows)
    : records_(records),
      batch_rows_(batch_rows == 0 ? kDefaultBatchRows : batch_rows) {
  meta_.shard_index = 0;
  meta_.shard_count = 1;
  meta_.total_injections = records.size();
  meta_.num_records = records.size();
}

bool VectorSource::next_batch(RecordBatch& out) {
  out.clear();
  if (next_ == records_.size()) return false;
  const std::size_t n = std::min(batch_rows_, records_.size() - next_);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i, ++next_) {
    out.push_back(next_, records_[next_]);
  }
  return true;
}

ShardFileSource::ShardFileSource(const std::string& path,
                                 std::size_t batch_rows)
    : reader_(path),
      batch_rows_(batch_rows == 0 ? VectorSource::kDefaultBatchRows
                                  : batch_rows) {}

bool ShardFileSource::next_batch(RecordBatch& out) {
  out.clear();
  out.reserve(batch_rows_);
  ShardRecord r;
  while (out.row_count() < batch_rows_ && reader_.next(r)) {
    out.push_back(r);
  }
  return !out.empty();
}

// --- ColumnarFileWriter -----------------------------------------------------

ColumnarFileWriter::ColumnarFileWriter(std::string path, ShardFileMeta meta,
                                       std::size_t chunk_rows)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      meta_(meta),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {
  open_file();
}

ColumnarFileWriter::ColumnarFileWriter(std::string path, std::size_t chunk_rows)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {}

void ColumnarFileWriter::begin(const ShardFileMeta& meta) {
  if (file_ != nullptr) return;  // metadata fixed at construction wins
  meta_ = meta;
  open_file();
}

void ColumnarFileWriter::open_file() {
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw Error("columnar store: cannot create '" + tmp_path_ + "'");
  }
  util::ByteWriter header;
  header.bytes(kMagic, sizeof(kMagic));
  header.u8(kVersionColumnar);
  header.varint(meta_.seed);
  header.varint(meta_.shard_index);
  header.varint(meta_.shard_count);
  header.varint(meta_.total_injections);
  header.fixed64(meta_.config_digest);
  write_raw(header.data().data(), header.size());
}

ColumnarFileWriter::~ColumnarFileWriter() {
  if (!flushed_) {
    if (file_ != nullptr) std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

void ColumnarFileWriter::write_raw(const void* data, std::size_t size) {
  if (size == 0) return;
  if (std::fwrite(data, 1, size, file_) != size) {
    throw Error("columnar store: write to '" + tmp_path_ + "' failed");
  }
  offset_ += size;
}

void ColumnarFileWriter::append(const RecordBatch& batch) {
  if (flushed_) {
    throw InternalError("columnar store: append after flush");
  }
  if (file_ == nullptr) {
    throw InternalError(
        "columnar store: deferred writer received records before begin()");
  }
  for (std::size_t i = 0; i + 1 < batch.row_count(); ++i) {
    if (batch.index[i + 1] <= batch.index[i]) {
      throw InvalidArgument(
          "columnar store: batch indices must be strictly ascending");
    }
  }
  // A batch that does not continue the buffered index run starts a new
  // chunk, so every chunk covers a disjoint index range and the reader can
  // replay chunks in ascending first-index order.
  if (!chunk_.empty() && !batch.empty() &&
      batch.index.front() != chunk_.index.back() + 1) {
    cut_chunk();
  }
  std::size_t pos = 0;
  while (pos < batch.row_count()) {
    const std::size_t take =
        std::min(chunk_rows_ - chunk_.row_count(), batch.row_count() - pos);
    for (std::size_t i = 0; i < take; ++i, ++pos) {
      chunk_.index.push_back(batch.index[pos]);
      chunk_.kind.push_back(batch.kind[pos]);
      chunk_.cell.push_back(batch.cell[pos]);
      chunk_.word.push_back(batch.word[pos]);
      chunk_.bit.push_back(batch.bit[pos]);
      chunk_.time_ps.push_back(batch.time_ps[pos]);
      chunk_.set_width_ps.push_back(batch.set_width_ps[pos]);
      chunk_.cluster.push_back(batch.cluster[pos]);
      chunk_.module_class.push_back(batch.module_class[pos]);
      chunk_.soft_error.push_back(batch.soft_error[pos]);
      chunk_.first_mismatch_cycle.push_back(batch.first_mismatch_cycle[pos]);
    }
    peak_buffered_rows_ = std::max(peak_buffered_rows_, chunk_.row_count());
    if (chunk_.row_count() == chunk_rows_) cut_chunk();
  }
  written_ += batch.row_count();
}

void ColumnarFileWriter::cut_chunk() {
  if (chunk_.empty()) return;
  util::ByteWriter payload;
  encode_columns(payload, chunk_);
  ChunkIndexEntry entry;
  entry.offset = offset_;
  entry.row_count = chunk_.row_count();
  entry.first_index = chunk_.index.front();
  entry.last_index = chunk_.index.back();
  util::ByteWriter head;
  head.u8(kChunkMarker);
  head.varint(chunk_.row_count());
  head.varint(payload.size());
  write_raw(head.data().data(), head.size());
  write_raw(payload.data().data(), payload.size());
  util::ByteWriter sum;
  sum.fixed64(util::fnv1a(payload.data()));
  write_raw(sum.data().data(), sum.size());
  chunks_.push_back(entry);
  chunk_.clear();
}

void ColumnarFileWriter::flush() {
  if (flushed_) return;
  if (file_ == nullptr) {
    throw InternalError(
        "columnar store: deferred writer flushed before begin()");
  }
  cut_chunk();
  // Sink batches may arrive in any order, but their ranges must not
  // interleave — the one way a producer can violate the sink contract that
  // only shows up at chunk granularity.
  std::vector<ChunkIndexEntry> sorted = chunks_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ChunkIndexEntry& a, const ChunkIndexEntry& b) {
              return a.first_index < b.first_index;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].first_index <= sorted[i - 1].last_index) {
      throw InvalidArgument(
          "columnar store: record batches interleave around injection " +
          std::to_string(sorted[i].first_index));
    }
  }
  util::ByteWriter footer;
  footer.varint(chunks_.size());
  for (const ChunkIndexEntry& e : chunks_) {
    footer.varint(e.offset);
    footer.varint(e.row_count);
    footer.varint(e.first_index);
    // Delta-coded last index: what ColumnarFileSource::select_range uses to
    // skip non-intersecting chunks without reading them.
    footer.varint(e.last_index - e.first_index);
  }
  footer.varint(written_);
  footer.fixed64(util::fnv1a(footer.data()));
  const std::uint64_t footer_len = footer.size();
  write_raw(footer.data().data(), footer.size());
  util::ByteWriter tail;
  tail.fixed64(footer_len);
  tail.bytes(kTailMagic, sizeof(kTailMagic));
  write_raw(tail.data().data(), tail.size());

  // atomic_write_file's publication contract, without ever holding the
  // whole store in memory: flush + fsync the temp file, rename over the
  // final path, then fsync the directory (best effort).
  if (std::fflush(file_) != 0) {
    throw Error("columnar store: flush of '" + tmp_path_ + "' failed");
  }
#ifndef _WIN32
  if (::fsync(::fileno(file_)) != 0) {
    throw Error("columnar store: fsync of '" + tmp_path_ + "' failed");
  }
#endif
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    throw Error("columnar store: close of '" + tmp_path_ + "' failed");
  }
  file_ = nullptr;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw Error("columnar store: rename to '" + path_ + "' failed");
  }
#ifndef _WIN32
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  flushed_ = true;
}

// --- ColumnarFileSource -----------------------------------------------------

ColumnarFileSource::ColumnarFileSource(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw Error("columnar store: cannot open '" + path + "'");
  const std::string where = "columnar store '" + path + "'";

  char magic[4];
  in_.read(magic, sizeof(magic));
  if (!in_ || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    throw InvalidArgument(where + ": bad magic");
  }
  char version = 0;
  in_.read(&version, 1);
  if (!in_ || static_cast<std::uint8_t>(version) != kVersionColumnar) {
    throw InvalidArgument(where + ": unsupported version");
  }
  // The varint header fields are small; 64 bytes is more than enough.
  std::uint8_t header[64];
  in_.read(reinterpret_cast<char*>(header), sizeof(header));
  const std::size_t header_got = static_cast<std::size_t>(in_.gcount());
  util::ByteReader hr({header, header_got});
  try {
    meta_.seed = hr.varint();
    meta_.shard_index = static_cast<std::uint32_t>(hr.varint());
    meta_.shard_count = static_cast<std::uint32_t>(hr.varint());
    meta_.total_injections = hr.varint();
    meta_.config_digest = hr.fixed64();
  } catch (const Error&) {
    throw InvalidArgument(where + ": truncated header");
  }
  const std::uint64_t header_end =
      5 + (header_got - hr.remaining());

  in_.clear();
  in_.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in_.tellg());
  if (file_size < header_end + kTailBytes) {
    throw InvalidArgument(where + ": truncated file");
  }
  std::uint8_t tail[kTailBytes];
  in_.seekg(static_cast<std::streamoff>(file_size - kTailBytes));
  in_.read(reinterpret_cast<char*>(tail), sizeof(tail));
  if (!in_) throw InvalidArgument(where + ": truncated file");
  if (std::memcmp(tail + 8, kTailMagic, sizeof(kTailMagic)) != 0) {
    throw InvalidArgument(where + ": bad tail magic (offset " +
                          std::to_string(file_size - 4) + ")");
  }
  std::uint64_t footer_len = 0;
  for (int i = 0; i < 8; ++i) {
    footer_len |= static_cast<std::uint64_t>(tail[i]) << (8 * i);
  }
  if (footer_len < 8 || footer_len > file_size - kTailBytes - header_end) {
    throw InvalidArgument(where + ": bad footer length");
  }
  const std::uint64_t footer_start = file_size - kTailBytes - footer_len;
  std::vector<std::uint8_t> footer(static_cast<std::size_t>(footer_len));
  in_.seekg(static_cast<std::streamoff>(footer_start));
  in_.read(reinterpret_cast<char*>(footer.data()),
           static_cast<std::streamsize>(footer.size()));
  if (!in_) throw InvalidArgument(where + ": truncated footer");
  const std::uint64_t want_digest =
      util::fnv1a({footer.data(), footer.size() - 8});
  std::uint64_t got_digest = 0;
  for (int i = 0; i < 8; ++i) {
    got_digest |= static_cast<std::uint64_t>(footer[footer.size() - 8 +
                                                   static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (want_digest != got_digest) {
    throw InvalidArgument(where + ": footer digest mismatch (offset " +
                          std::to_string(footer_start + footer_len - 8) + ")");
  }
  util::ByteReader fr({footer.data(), footer.size() - 8});
  try {
    const std::uint64_t num_chunks = fr.varint();
    if (num_chunks > fr.remaining() / 4) {
      throw InvalidArgument(where + ": bad chunk count");
    }
    chunks_.reserve(static_cast<std::size_t>(num_chunks));
    for (std::uint64_t i = 0; i < num_chunks; ++i) {
      ChunkIndexEntry e;
      e.offset = fr.varint();
      e.row_count = fr.varint();
      e.first_index = fr.varint();
      e.last_index = e.first_index + fr.varint();
      if (e.offset < header_end || e.offset >= footer_start ||
          e.row_count == 0 ||
          e.last_index - e.first_index < e.row_count - 1) {
        throw InvalidArgument(where + ": bad chunk index entry " +
                              std::to_string(i));
      }
      chunks_.push_back(e);
    }
    total_records_ = fr.varint();
    if (!fr.at_end()) {
      throw InvalidArgument(where + ": trailing bytes in footer");
    }
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error& e) {
    throw InvalidArgument(where + ": " + e.what());
  }
  std::uint64_t rows = 0;
  for (const ChunkIndexEntry& e : chunks_) rows += e.row_count;
  if (rows != total_records_) {
    throw InvalidArgument(where + ": chunk rows disagree with footer total");
  }
  meta_.num_records = total_records_;
  // Replay order: ascending first record index, regardless of the order
  // chunks arrived at the writer.
  std::sort(chunks_.begin(), chunks_.end(),
            [](const ChunkIndexEntry& a, const ChunkIndexEntry& b) {
              return a.first_index < b.first_index;
            });
}

void ColumnarFileSource::select_range(std::uint64_t lo, std::uint64_t hi) {
  if (next_chunk_ != 0 || chunks_decoded_ != 0) {
    throw InternalError("columnar store: select_range after reading started");
  }
  range_lo_ = lo;
  range_hi_ = hi;
  std::vector<ChunkIndexEntry> kept;
  kept.reserve(chunks_.size());
  for (const ChunkIndexEntry& e : chunks_) {
    if (lo >= hi || e.last_index < lo || e.first_index >= hi) {
      ++chunks_skipped_;
    } else {
      kept.push_back(e);
    }
  }
  chunks_ = std::move(kept);
}

namespace {

/// Drops rows [0, from) and [to, n) from every column.
void trim_batch(RecordBatch& b, std::size_t from, std::size_t to) {
  const auto cut = [from, to](auto& col) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(to), col.end());
    col.erase(col.begin(), col.begin() + static_cast<std::ptrdiff_t>(from));
  };
  cut(b.index);
  cut(b.kind);
  cut(b.cell);
  cut(b.word);
  cut(b.bit);
  cut(b.time_ps);
  cut(b.set_width_ps);
  cut(b.cluster);
  cut(b.module_class);
  cut(b.soft_error);
  cut(b.first_mismatch_cycle);
}

}  // namespace

bool ColumnarFileSource::next_batch(RecordBatch& out) {
  out.clear();
  while (next_chunk_ != chunks_.size()) {
    if (decode_chunk(out)) return true;
  }
  return false;
}

bool ColumnarFileSource::decode_chunk(RecordBatch& out) {
  const ChunkIndexEntry& e = chunks_[next_chunk_];
  const std::string where = "columnar store '" + path_ + "': chunk at offset " +
                            std::to_string(e.offset);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(e.offset));
  std::uint8_t marker = 0;
  in_.read(reinterpret_cast<char*>(&marker), 1);
  if (!in_ || marker != kChunkMarker) {
    throw InvalidArgument(where + ": bad chunk marker");
  }
  auto read_varint = [&]() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      in_.read(reinterpret_cast<char*>(&byte), 1);
      if (!in_) throw InvalidArgument(where + ": truncated chunk header");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    throw InvalidArgument(where + ": varint overflow");
  };
  const std::uint64_t rows = read_varint();
  const std::uint64_t payload_len = read_varint();
  if (rows != e.row_count) {
    throw InvalidArgument(where + ": row count contradicts the chunk index");
  }
  // Each row costs >= 10 payload bytes; a hostile row count must never
  // drive a huge allocation.
  if (rows > payload_len) {
    throw InvalidArgument(where + ": truncated chunk payload");
  }
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_len));
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  if (!in_) throw InvalidArgument(where + ": truncated chunk payload");
  std::uint8_t sum[8];
  in_.read(reinterpret_cast<char*>(sum), sizeof(sum));
  if (!in_) throw InvalidArgument(where + ": truncated chunk checksum");
  std::uint64_t want = 0;
  for (int i = 0; i < 8; ++i) {
    want |= static_cast<std::uint64_t>(sum[i]) << (8 * i);
  }
  if (util::fnv1a(payload) != want) {
    throw InvalidArgument(where + ": checksum mismatch");
  }
  util::ByteReader pr(payload);
  decode_columns(pr, rows, out, where);
  if (out.index.front() != e.first_index || out.index.back() != e.last_index) {
    throw InvalidArgument(where +
                          ": index range contradicts the chunk index");
  }
  if (chunks_decoded_ > 0 && out.index.front() <= prev_last_index_) {
    throw InvalidArgument(where + ": chunk index ranges overlap");
  }
  prev_last_index_ = out.index.back();
  ++next_chunk_;
  ++chunks_decoded_;
  // Row-level trim of the select_range window. A chunk whose span
  // intersects the window can still hold zero in-range rows (index runs
  // may have gaps) — the caller then moves on to the next chunk.
  const auto lo = std::lower_bound(out.index.begin(), out.index.end(),
                                   range_lo_) -
                  out.index.begin();
  const auto hi = std::lower_bound(out.index.begin(), out.index.end(),
                                   range_hi_) -
                  out.index.begin();
  if (lo != 0 || hi != static_cast<std::ptrdiff_t>(out.row_count())) {
    trim_batch(out, static_cast<std::size_t>(lo), static_cast<std::size_t>(hi));
  }
  if (out.empty()) {
    out.clear();
    return false;
  }
  return true;
}

std::unique_ptr<RecordSource> open_record_source(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw Error("record store: cannot open '" + path + "'");
  char head[5] = {};
  probe.read(head, sizeof(head));
  if (!probe || std::string_view(head, 4) != std::string_view(kMagic, 4)) {
    throw InvalidArgument("record store '" + path + "': bad magic");
  }
  probe.close();
  const std::uint8_t version = static_cast<std::uint8_t>(head[4]);
  if (version == 1) return std::make_unique<ShardFileSource>(path);
  if (version == kVersionColumnar) {
    return std::make_unique<ColumnarFileSource>(path);
  }
  throw InvalidArgument("record store '" + path + "': unsupported version " +
                        std::to_string(version));
}

// --- CampaignAggregator -----------------------------------------------------

CampaignAggregator::CampaignAggregator(const soc::SocModel& model,
                                       const CampaignConfig& config,
                                       const radiation::SoftErrorDatabase& db,
                                       const detail::CampaignPrep& prep)
    : model_(model),
      config_(config),
      db_(db),
      prep_(prep),
      cluster_samples_(prep.clustering.clusters.size(), 0),
      cluster_errors_(prep.clustering.clusters.size(), 0) {}

CampaignAggregator::~CampaignAggregator() = default;

void CampaignAggregator::append(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.row_count(); ++i) {
    const std::size_t k = batch.cluster[i];
    if (k >= cluster_samples_.size()) {
      throw InvalidArgument("record stream: cluster " + std::to_string(k) +
                            " out of range");
    }
    const std::size_t c = batch.module_class[i];
    if (c >= netlist::kModuleClassCount) {
      throw InvalidArgument("record stream: bad module class");
    }
    ++cluster_samples_[k];
    ++class_samples_[c];
    ++num_records_;
    if (batch.soft_error[i] != 0) {
      ++cluster_errors_[k];
      ++class_errors_[c];
      ++num_soft_errors_;
      latency_[c].add(batch.first_mismatch_cycle[i]);
    }
  }
}

CampaignStats CampaignAggregator::finalize() const {
  CampaignStats stats = detail::compute_campaign_stats(
      model_, config_, db_, prep_.clustering, prep_.cell_xsects,
      prep_.window_ps,
      detail::StatsCounters{cluster_samples_, cluster_errors_, class_samples_,
                            class_errors_});
  stats.latency = latency_;
  stats.num_records = num_records_;
  stats.num_soft_errors = num_soft_errors_;
  stats.golden_cycles = prep_.run_cycles;
  stats.clock_period_ps = prep_.clock_period_ps;
  return stats;
}

// --- Streaming merge --------------------------------------------------------

namespace detail {

namespace {

struct MergeCursor {
  std::unique_ptr<RecordSource> source;
  std::string path;
  RecordBatch batch;
  std::size_t pos = 0;

  bool advance() {
    while (pos == batch.row_count()) {
      if (!source->next_batch(batch)) return false;
      pos = 0;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t head() const { return batch.index[pos]; }
};

}  // namespace

std::uint64_t stream_merged_records(const soc::SocModel& model,
                                    const CampaignConfig& config,
                                    const CampaignPrep& prep,
                                    const std::vector<std::string>& paths,
                                    RecordSink& sink) {
  if (paths.empty()) {
    throw InvalidArgument("merge: no shard files given");
  }
  const std::uint64_t digest = campaign_config_digest(model, config);
  const std::uint64_t plan_size = prep.plan.size();

  std::vector<MergeCursor> cursors;
  cursors.reserve(paths.size());
  for (const std::string& path : paths) {
    MergeCursor c;
    c.source = open_record_source(path);
    c.path = path;
    const ShardFileMeta& meta = c.source->meta();
    if (meta.config_digest != digest) {
      throw InvalidArgument("shard file '" + path +
                            "': campaign configuration digest mismatch");
    }
    if (meta.total_injections != plan_size) {
      throw InvalidArgument(
          "shard file '" + path + "': total injections " +
          std::to_string(meta.total_injections) +
          " does not match the campaign plan (" + std::to_string(plan_size) +
          ")");
    }
    cursors.push_back(std::move(c));
  }

  ShardFileMeta merged_meta;
  merged_meta.seed = config.seed;
  merged_meta.shard_index = 0;
  merged_meta.shard_count = 1;
  merged_meta.total_injections = plan_size;
  merged_meta.config_digest = digest;
  merged_meta.num_records = plan_size;
  sink.begin(merged_meta);

  // K-way merge of the per-file ascending streams into one ascending
  // stream: peak memory is one in-flight batch per input file.
  auto later = [&cursors](std::size_t a, std::size_t b) {
    return cursors[a].head() > cursors[b].head();
  };
  std::vector<std::size_t> heap;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].advance()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), later);

  RecordBatch out;
  out.reserve(VectorSource::kDefaultBatchRows);
  std::uint64_t streamed = 0;
  std::uint64_t prev = 0;
  bool have_prev = false;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t idx = heap.back();
    heap.pop_back();
    MergeCursor& c = cursors[idx];
    const std::uint64_t gi = c.head();
    if (have_prev && gi == prev) {
      throw InvalidArgument("duplicate record for injection " +
                            std::to_string(gi));
    }
    if (gi >= plan_size) {
      throw InvalidArgument("shard file '" + c.path + "': record index " +
                            std::to_string(gi) + " out of range");
    }
    const ShardRecord r = c.batch.row(c.pos);
    const PlannedInjection& planned = prep.plan[static_cast<std::size_t>(gi)];
    if (r.record.cluster != planned.cluster ||
        r.record.module_class != model.netlist.cell_class(planned.cell)) {
      throw InvalidArgument("shard file '" + c.path + "': record " +
                            std::to_string(gi) +
                            " contradicts the campaign plan");
    }
    out.push_back(r);
    if (out.row_count() == VectorSource::kDefaultBatchRows) {
      sink.append(out);
      out.clear();
    }
    prev = gi;
    have_prev = true;
    ++streamed;
    ++c.pos;
    if (c.advance()) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  if (!out.empty()) sink.append(out);
  if (streamed != plan_size) {
    throw InvalidArgument("shard files cover " + std::to_string(streamed) +
                          " of " + std::to_string(plan_size) + " injections");
  }
  return streamed;
}

}  // namespace detail

CampaignStats merge_record_files(const soc::SocModel& model,
                                 const CampaignConfig& config,
                                 const radiation::SoftErrorDatabase& db,
                                 const std::vector<std::string>& paths,
                                 RecordSink& sink) {
  util::Timer timer;
  const detail::CampaignPrep prep =
      detail::prepare_campaign(model, config, db, /*for_execution=*/false);
  CampaignAggregator aggregator(model, config, db, prep);
  TeeSink tee({&aggregator, &sink});
  detail::stream_merged_records(model, config, prep, paths, tee);
  tee.flush();
  CampaignStats stats = aggregator.finalize();
  stats.simulation_seconds = timer.seconds();
  return stats;
}

// --- Streaming CSV / whole-vector v2 writer ---------------------------------

void write_records_csv(const std::string& path, RecordSource& source) {
  util::write_csv_file(path, [&](std::FILE* f) {
    std::fputs(
        "index,kind,cell,word,bit,time_ps,set_width_ps,cluster,module_class,"
        "soft_error,first_mismatch_cycle\n",
        f);
    RecordBatch batch;
    while (source.next_batch(batch)) {
      for (std::size_t i = 0; i < batch.row_count(); ++i) {
        const ShardRecord r = batch.row(i);
        const radiation::FaultEvent& e = r.record.event;
        std::fprintf(
            f, "%llu,%s,%u,%u,%u,%llu,%u,%d,%s,%d,%llu\n",
            static_cast<unsigned long long>(r.index),
            std::string(radiation::fault_kind_name(e.target.kind)).c_str(),
            e.target.cell.index(), e.target.word, e.target.bit,
            static_cast<unsigned long long>(e.time_ps), e.set_width_ps,
            r.record.cluster,
            std::string(netlist::module_class_name(r.record.module_class))
                .c_str(),
            r.record.soft_error ? 1 : 0,
            static_cast<unsigned long long>(r.record.first_mismatch_cycle));
      }
    }
  });
}

void write_columnar_file(const std::string& path, const ShardFileMeta& meta,
                         std::span<const ShardRecord> records,
                         std::size_t chunk_rows) {
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    if (records[i + 1].index <= records[i].index) {
      throw InvalidArgument(
          "write_columnar_file: records must be in ascending index order");
    }
  }
  ColumnarFileWriter writer(path, meta, chunk_rows);
  RecordBatch batch;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min(chunk_rows == 0
                                       ? ColumnarFileWriter::kDefaultChunkRows
                                       : chunk_rows,
                                   records.size() - i);
    batch.clear();
    batch.reserve(n);
    for (std::size_t j = 0; j < n; ++j, ++i) batch.push_back(records[i]);
    writer.append(batch);
  }
  writer.flush();
}

void write_records_file(const std::string& path, ShardFileMeta meta,
                        std::span<const ShardRecord> records,
                        int record_format) {
  meta.num_records = records.size();
  if (record_format == 2) {
    write_columnar_file(path, meta, records);
  } else if (record_format == 1) {
    write_shard_file(path, meta, records);
  } else {
    throw InvalidArgument("record format must be 1 or 2, got " +
                          std::to_string(record_format));
  }
}

}  // namespace ssresf::fi
