// Copyright 2026 The SPLASH Reproduction Authors.
//
// Framing edge cases of the durability layer (ISSUE 6, satellite S4):
//   - an empty WAL segment scans clean (header only, zero records);
//   - exactly one record round-trips field-for-field;
//   - a torn final record is detected and truncated at EVERY byte offset
//     of the frame header and at payload offsets (parameterized) — the
//     shape a kill -9 mid-write leaves behind;
//   - a CRC mismatch mid-log truncates at the corruption point and
//     reports kCorrupt (bit rot is distinguished from a torn tail);
//   - checkpoint atomicity: a crash between temp-write and rename leaves
//     the previous checkpoint loadable; a corrupt newest checkpoint falls
//     back to its predecessor; GC keeps kCheckpointsToKeep;
//   - the slice-by-8 CRC32C equals a bytewise reference at every length,
//     alignment and seed, and chains across split buffers;
//   - WalWriter::Open issues no fsync (the header rides the first one);
//   - the streamed checkpoint writer emits exactly the bytes of the
//     single-buffer header + payload layout the format defines.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace splash {
namespace {

/// RAII temp dir under /tmp; removed recursively on teardown.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/splash_wal_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path_.empty() && path_.rfind("/tmp/", 0) == 0) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> buf;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return buf;
  std::fseek(f, 0, SEEK_END);
  buf.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
    buf.clear();
  }
  std::fclose(f);
  return buf;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& buf) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
}

WalRecord MakeRecord(uint64_t batch, uint64_t begin, size_t n_edges,
                     size_t n_train) {
  WalRecord rec;
  rec.batch_index = batch;
  rec.seq_begin = begin;
  rec.seq_end = begin + n_edges;
  rec.wm_time = 100.0 + static_cast<double>(begin + n_edges);
  for (size_t i = 0; i < n_edges; ++i) {
    rec.edges.push_back(TemporalEdge(static_cast<NodeId>(i),
                                     static_cast<NodeId>(i + 1),
                                     rec.wm_time - 1.0 + 0.001 * i));
  }
  for (size_t i = 0; i < n_train; ++i) {
    rec.train.push_back(PropertyQuery{static_cast<NodeId>(7 + i), rec.wm_time,
                                      static_cast<int>(i % 2)});
  }
  return rec;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.batch_index, b.batch_index);
  EXPECT_EQ(a.seq_begin, b.seq_begin);
  EXPECT_EQ(a.seq_end, b.seq_end);
  EXPECT_EQ(a.wm_time, b.wm_time);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].time, b.edges[i].time);
  }
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].node, b.train[i].node);
    EXPECT_EQ(a.train[i].time, b.train[i].time);
    EXPECT_EQ(a.train[i].class_label, b.train[i].class_label);
  }
}

size_t FrameSizeOf(const WalRecord& rec) {
  ByteWriter w;
  EncodeWalRecord(rec, &w);
  return 8 + w.size();  // frame header + payload
}

/// The format's CRC32C register advanced by one byte, bit by bit from the
/// polynomial — kept here, independent of core/serialize.h, as the oracle
/// for Crc32c.
uint32_t CrcStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? 0x82f63b78u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

uint32_t BytewiseCrc32c(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t reg = ~seed;
  for (size_t i = 0; i < n; ++i) reg = CrcStep(reg, p[i]);
  return ~reg;
}

TEST(ServeWalTest, Crc32cKnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, 9), 0xE3069283u);
  EXPECT_EQ(BytewiseCrc32c(reinterpret_cast<const uint8_t*>(check), 9, 0),
            0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(ServeWalTest, Crc32cMatchesBytewiseAtEveryLengthOffsetAndSeed) {
  constexpr size_t kMaxLen = 4096;
  std::vector<uint8_t> buf(kMaxLen + 8);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (const uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
    for (size_t off = 0; off < 8; ++off) {
      // The bytewise register runs along the buffer once; at each length
      // it holds the reference CRC of the prefix.
      const uint8_t* p = buf.data() + off;
      uint32_t reg = ~seed;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(Crc32c(p, len, seed), ~reg)
            << "len=" << len << " off=" << off << " seed=" << seed;
        reg = CrcStep(reg, p[len]);
      }
    }
  }
}

TEST(ServeWalTest, Crc32cChainsAcrossSplits) {
  std::vector<uint8_t> buf(1000);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (const size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const uint32_t a = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, a), whole)
        << "split=" << split;
  }
}

TEST(ServeWalTest, OpenIssuesNoFsyncTheFirstSyncCoversTheHeader) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kAlways, 1).ok());
    EXPECT_EQ(w.fsyncs(), 0u);
    ASSERT_TRUE(w.Sync().ok());  // nothing appended: nothing to sync
    EXPECT_EQ(w.fsyncs(), 0u);
    ASSERT_TRUE(w.Append(MakeRecord(0, 0, 2, 0)).ok());
    EXPECT_EQ(w.fsyncs(), 1u);
  }
  {
    // A header-only segment closes without an fsync under any policy.
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kBatch, 4).ok());
    w.Close();
    EXPECT_EQ(w.fsyncs(), 0u);
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_TRUE(scan.records.empty());
}

TEST(ServeWalTest, EmptySegmentScansClean) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.start_seq, 0u);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kClean);
}

TEST(ServeWalTest, ExactlyOneRecordRoundTrips) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 3);
  const WalRecord rec = MakeRecord(3, 40, 5, 2);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 40, WalFsyncPolicy::kAlways, 1).ok());
    ASSERT_TRUE(w.Append(rec).ok());
    EXPECT_EQ(w.records_appended(), 1u);
    EXPECT_GE(w.fsyncs(), 1u);
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.start_seq, 40u);
  EXPECT_EQ(scan.tail, WalTailStatus::kClean);
  ASSERT_EQ(scan.records.size(), 1u);
  ExpectRecordsEqual(scan.records[0], rec);
}

TEST(ServeWalTest, TrainOnlyAndEmptyRecordsRoundTrip) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord train_only = MakeRecord(0, 10, 0, 3);
  const WalRecord empty = MakeRecord(1, 10, 0, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 10, WalFsyncPolicy::kBatch, 2).ok());
    ASSERT_TRUE(w.Append(train_only).ok());
    ASSERT_TRUE(w.Append(empty).ok());
  }
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 2u);
  ExpectRecordsEqual(scan.records[0], train_only);
  ExpectRecordsEqual(scan.records[1], empty);
}

/// The kill -9 shape: the final record's frame reached the file only up to
/// byte `cut`. Every cut inside the frame header (8 bytes) and a sweep of
/// payload offsets must scan as kTorn with exactly the prior records kept.
class ServeWalTornTailTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServeWalTornTailTest, TornFinalRecordTruncatedNeverApplied) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord first = MakeRecord(0, 0, 4, 1);
  const WalRecord last = MakeRecord(1, 4, 3, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(first).ok());
    ASSERT_TRUE(w.Append(last).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  const size_t last_frame = FrameSizeOf(last);
  ASSERT_GT(buf.size(), last_frame);
  const size_t cut = GetParam();
  ASSERT_LT(cut, last_frame);
  buf.resize(buf.size() - last_frame + cut);
  WriteFile(path, buf);

  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  // cut == 0: no byte of the final frame reached disk — that IS the clean
  // one-record log. Any strict prefix of the frame is a torn tail.
  EXPECT_EQ(scan.tail,
            cut == 0 ? WalTailStatus::kClean : WalTailStatus::kTorn)
      << "cut=" << cut;
  ASSERT_EQ(scan.records.size(), 1u) << "cut=" << cut;
  ExpectRecordsEqual(scan.records[0], first);
  EXPECT_EQ(scan.valid_bytes, buf.size() - cut);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFrameHeaderByte, ServeWalTornTailTest,
    ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,  // header offsets
                      8u, 9u, 17u, 30u, 45u));         // payload offsets

TEST(ServeWalTest, CrcMismatchMidLogTruncatesAtCorruption) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord r0 = MakeRecord(0, 0, 3, 0);
  const WalRecord r1 = MakeRecord(1, 3, 3, 1);
  const WalRecord r2 = MakeRecord(2, 6, 3, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(r0).ok());
    ASSERT_TRUE(w.Append(r1).ok());
    ASSERT_TRUE(w.Append(r2).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  // Flip one payload bit inside the middle record (past its frame header).
  const size_t r0_end = 20 + FrameSizeOf(r0);  // segment header = 20 bytes
  buf[r0_end + 8 + 5] ^= 0x10;
  WriteFile(path, buf);

  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);  // r1 AND r2 are gone: prefix only
  ExpectRecordsEqual(scan.records[0], r0);
}

TEST(ServeWalTest, LengthBombInFrameHeaderIsCorruptNotCrash) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  const WalRecord r0 = MakeRecord(0, 0, 2, 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(r0).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  buf[20 + 3] = 0xFF;  // frame length's top byte -> > kMaxRecordBytes
  WriteFile(path, buf);
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);
}

TEST(ServeWalTest, CorruptSegmentHeaderYieldsNoRecords) {
  TempDir dir;
  const std::string path = WalSegmentPath(dir.path(), 0);
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0, WalFsyncPolicy::kNone, 8).ok());
    ASSERT_TRUE(w.Append(MakeRecord(0, 0, 2, 0)).ok());
  }
  std::vector<uint8_t> buf = ReadFile(path);
  std::vector<uint8_t> orig = buf;
  buf[10] ^= 0x01;  // start_seq byte: header CRC must catch it
  WriteFile(path, buf);
  WalScan scan;
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_FALSE(scan.header_ok);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.tail, WalTailStatus::kCorrupt);

  // A header shorter than its fixed size is torn, not corrupt.
  orig.resize(11);
  WriteFile(path, orig);
  ASSERT_TRUE(ScanWalFile(path, &scan).ok());
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.tail, WalTailStatus::kTorn);
}

TEST(ServeWalTest, ListSegmentsSortsByStartIndex) {
  TempDir dir;
  for (const uint64_t idx : {30u, 0u, 12u}) {
    WalWriter w;
    ASSERT_TRUE(
        w.Open(WalSegmentPath(dir.path(), idx), idx, WalFsyncPolicy::kNone, 8)
            .ok());
  }
  const auto segs = ListWalSegments(dir.path());
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].start_index, 0u);
  EXPECT_EQ(segs[1].start_index, 12u);
  EXPECT_EQ(segs[2].start_index, 30u);
}

// ---------------------------------------------------------------------------
// Checkpoint atomicity
// ---------------------------------------------------------------------------

EdgeStream MakeLog(size_t n) {
  EdgeStream log;
  log.EnsureNodeCapacity(n + 2);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(log.Append(TemporalEdge(static_cast<NodeId>(i),
                                        static_cast<NodeId>(i + 1),
                                        static_cast<double>(i)))
                    .ok());
  }
  return log;
}

TEST(ServeCheckpointTest, RoundTripAndNewestWins) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1, 0, 1};
  const std::vector<uint8_t> blob2 = {1, 2, 3, 4};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9, 8}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), seen, blob2).ok());

  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 9u);
  EXPECT_EQ(data.batches_applied, 4u);
  EXPECT_EQ(data.wm_time, 8.0);
  ASSERT_EQ(data.log.size(), 9u);
  EXPECT_EQ(data.log[3].src, 3u);
  EXPECT_EQ(data.node_seen, seen);
  EXPECT_EQ(data.predictor_state, blob2);
}

TEST(ServeCheckpointTest, CrashBetweenTempWriteAndRenameKeepsPrevious) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9}).ok());
  // The crash shape: the NEXT checkpoint's temp file exists (even fully
  // written) but was never renamed. The loader must ignore it entirely.
  const std::string orphan = CheckpointPath(dir.path(), 9) + ".tmp";
  WriteFile(orphan, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});

  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);
}

TEST(ServeCheckpointTest, CorruptOrTornNewestFallsBackToPredecessor) {
  TempDir dir;
  const std::vector<uint8_t> seen = {1};
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 5, 2, 4.0, MakeLog(5), seen, {9}).ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir.path(), 9, 4, 8.0, MakeLog(9), seen, {1}).ok());

  // Bit-flip the newest: CRC rejects it, the previous one loads.
  const std::string newest = CheckpointPath(dir.path(), 9);
  std::vector<uint8_t> orig = ReadFile(newest);
  ASSERT_FALSE(orig.empty());
  std::vector<uint8_t> buf = orig;
  buf[buf.size() / 2] ^= 0x40;
  WriteFile(newest, buf);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);

  // Truncate the newest instead (torn): same fallback.
  buf = orig;
  buf.resize(buf.size() - 7);
  WriteFile(newest, buf);
  found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);

  // Both gone: found=false with an OK status (recovery starts fresh).
  ASSERT_EQ(::unlink(newest.c_str()), 0);
  ASSERT_EQ(::unlink(CheckpointPath(dir.path(), 5).c_str()), 0);
  found = true;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  EXPECT_FALSE(found);
}

/// The checkpoint file as the format defines it, assembled the simple way:
/// the whole payload in one buffer, CRC'd bytewise, behind the header.
std::vector<uint8_t> SingleBufferCheckpoint(uint64_t seq, uint64_t batches,
                                            double wm_time,
                                            const EdgeStream& log,
                                            const std::vector<uint8_t>& seen,
                                            const std::vector<uint8_t>& blob) {
  ByteWriter payload;
  payload.U64(seq);
  payload.U64(batches);
  payload.F64(wm_time);
  payload.U64(log.size());
  payload.U64(log.num_nodes());
  payload.Bytes(log.src_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.dst_data(), log.size() * sizeof(NodeId));
  payload.Bytes(log.time_data(), log.size() * sizeof(double));
  payload.U8Vec(seen);
  payload.U8Vec(blob);
  ByteWriter file;
  file.Bytes("SPLCKP1\n", 8);
  file.U64(payload.size());
  file.U32(BytewiseCrc32c(payload.buffer().data(), payload.size(), 0));
  file.Bytes(payload.buffer().data(), payload.size());
  return file.buffer();
}

TEST(ServeCheckpointTest, StreamedWriteIsByteEqualToSingleBufferLayout) {
  std::vector<uint8_t> blob(100003);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 7 + (i >> 9));
  }
  const std::vector<uint8_t> seen = {1, 0, 1, 1, 0};
  for (const size_t n_edges : {0u, 37u}) {
    TempDir dir;
    const EdgeStream log = MakeLog(n_edges);
    const double wm_time = 12.5 + static_cast<double>(n_edges);
    ASSERT_TRUE(
        WriteCheckpoint(dir.path(), 41, 6, wm_time, log, seen, blob).ok());
    const std::vector<uint8_t> got = ReadFile(CheckpointPath(dir.path(), 41));
    const std::vector<uint8_t> want =
        SingleBufferCheckpoint(41, 6, wm_time, log, seen, blob);
    ASSERT_EQ(got.size(), want.size()) << "n_edges=" << n_edges;
    EXPECT_TRUE(got == want) << "n_edges=" << n_edges;

    CheckpointData data;
    bool found = false;
    ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(data.seq, 41u);
    EXPECT_EQ(data.batches_applied, 6u);
    EXPECT_EQ(data.wm_time, wm_time);
    ASSERT_EQ(data.log.size(), n_edges);
    for (size_t i = 0; i < n_edges; ++i) {
      EXPECT_EQ(data.log[i].src, log[i].src);
      EXPECT_EQ(data.log[i].dst, log[i].dst);
      EXPECT_EQ(data.log[i].time, log[i].time);
    }
    EXPECT_EQ(data.node_seen, seen);
    EXPECT_TRUE(data.predictor_state == blob);
  }
}

TEST(ServeCheckpointTest, GcKeepsNewestTwo) {
  TempDir dir;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(WriteCheckpoint(dir.path(), seq, seq, 1.0, MakeLog(seq), {1},
                                {static_cast<uint8_t>(seq)})
                    .ok());
  }
  size_t kept = 0;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    struct stat sb;
    if (::stat(CheckpointPath(dir.path(), seq).c_str(), &sb) == 0) ++kept;
  }
  EXPECT_EQ(kept, kCheckpointsToKeep);
  CheckpointData data;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &data, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(data.seq, 5u);
}

}  // namespace
}  // namespace splash
