// Copyright 2026 The SPLASH Reproduction Authors.
//
// Recovery oracle of the durable serving layer (ISSUE 6):
//
//   crash at ANY point -> RecoverOrStart -> state is BIT-IDENTICAL to an
//   uninterrupted run truncated at the recovered watermark.
//
// "State" is the full predictor blob (SLIM params + Adam moments, neighbor
// rings + cursors, augmenter caches + degree counts, RNG stream position),
// compared byte-for-byte via SerializeState. The reference is built by
// replaying the WAL history (gc_wal_on_checkpoint=false keeps it complete)
// through a fresh predictor with the recorded micro-batch boundaries — the
// same contract serve_service_test pins for the live snapshot path. The
// oracle services run with record_apply_log so the recovered ingest log can
// be compared edge for edge; the production-mode cases run without it and
// check that state and checkpoints stay O(1) per ingested edge.
//
// Crash points are exercised for real: each parameterized case forks a
// child, arms ONE compiled-in crash point (serve/fault_injection.h), and
// drives ingest until the child dies with _exit(137) exactly as kill -9
// would (no destructors, no flushes). The parent then recovers from the
// crashed data_dir and checks the oracle. Fork safety: the global pool is
// pinned to 1 thread (spawns no workers) and no SplashService exists in
// the parent when it forks (PipelineThread starts a thread at service
// construction).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "runtime/thread_pool.h"
#include "serve/checkpoint.h"
#include "serve/fault_injection.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace splash {
namespace {

/// Sentinel for "any recovered watermark is acceptable" (crash cases: the
/// crash lands at a point the test does not control exactly).
constexpr uint64_t kAnySeq = ~uint64_t{0};

class ServeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One global thread == zero spawned workers: the process stays
    // single-threaded between services, which makes fork() safe.
    ThreadPool::SetGlobalThreads(1);
    DisarmAllCrashPoints();
  }
  void TearDown() override { DisarmAllCrashPoints(); }
};

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/splash_recovery_test_XXXXXX";
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

Dataset MakeWarmup() {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 120;
  cfg.num_edges = 2400;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.25;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 33;
  return GenerateSynthetic(cfg);
}

SplashOptions RecoveryModelOptions(float dropout = 0.0f) {
  SplashOptions opts;
  opts.mode = SplashMode::kForceStructural;  // no selection pass: fast
  opts.augment.feature_dim = 12;
  opts.slim.hidden_dim = 24;
  opts.slim.time_dim = 8;
  opts.slim.k_recent = 5;
  opts.slim.dropout = dropout;
  opts.seed = 7;
  return opts;
}

TrainerOptions SmallFit() {
  TrainerOptions fit;
  fit.epochs = 2;
  fit.batch_size = 64;
  fit.early_stopping = false;
  fit.num_threads = 1;
  fit.pipeline_depth = 0;
  return fit;
}

SplashServiceOptions DurableOptions(const std::string& data_dir) {
  SplashServiceOptions opts;
  opts.microbatch_max_items = 24;
  opts.microbatch_max_delay_s = 0.0;  // apply as soon as anything is queued
  opts.queue_capacity = 256;
  opts.backpressure = BackpressurePolicy::kBlock;  // lossless
  opts.data_dir = data_dir;
  opts.wal_fsync = WalFsyncPolicy::kAlways;  // reach the before-fsync point
  opts.wal_group_records = 4;
  opts.checkpoint_interval_batches = 4;
  opts.checkpoint_on_stop = true;
  opts.gc_wal_on_checkpoint = false;  // keep full history for the oracle
  opts.record_apply_log = true;       // compare the log edge for edge
  return opts;
}

/// DurableOptions as a production service runs: no full-history log, so
/// checkpoints carry an empty log section.
SplashServiceOptions ProductionOptions(const std::string& data_dir) {
  SplashServiceOptions opts = DurableOptions(data_dir);
  opts.record_apply_log = false;
  return opts;
}

/// The replica precision the service resolves from the environment
/// (SPLASH_REPLICA_PRECISION), so the reference reads through the same
/// packs the service's query path does.
bool EnvReplicaBf16() {
  return DurableOptions("").ResolvedReplicaPrecision() == "bf16";
}

std::vector<TemporalEdge> LiveEdges(const Dataset& ds,
                                    const ChronoSplit& split) {
  std::vector<TemporalEdge> live;
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    if (ds.stream[i].time > split.val_end_time) live.push_back(ds.stream[i]);
  }
  return live;
}

/// Feeds `edges[begin, end)` with a labeled train submission every 7th
/// item (the online-learning traffic shape). kBlock means nothing drops.
void FeedLive(SplashService* svc, const std::vector<TemporalEdge>& edges,
              size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < edges.size(); ++i) {
    svc->IngestEdge(edges[i]);
    if (i % 7 == 3) {
      PropertyQuery q;
      q.node = edges[i].dst;
      q.time = edges[i].time;
      q.class_label = static_cast<int>(i % 3);
      svc->SubmitTrain(q);
    }
  }
}

/// The contiguous, CRC-valid WAL history from batch 0 across all retained
/// segments — the same skip/contiguity rule RecoverOrStart applies, run
/// from the very beginning instead of from a checkpoint cursor.
std::vector<WalRecord> CollectFullHistory(const std::string& dir) {
  std::vector<WalRecord> out;
  uint64_t next_batch = 0;
  uint64_t next_seq = 0;
  for (const WalSegmentInfo& seg : ListWalSegments(dir)) {
    WalScan scan;
    if (!ScanWalFile(seg.path, &scan).ok() || !scan.header_ok) continue;
    for (WalRecord& rec : scan.records) {
      if (rec.batch_index < next_batch) continue;
      if (rec.batch_index != next_batch || rec.seq_begin != next_seq) {
        return out;  // gap: stop, like recovery does
      }
      next_seq = rec.seq_end;
      ++next_batch;
      out.push_back(std::move(rec));
    }
  }
  return out;
}

/// Uninterrupted-run reference: fresh predictor through the identical
/// deterministic Prepare/Fit, then the recorded micro-batch sequence.
std::unique_ptr<SplashPredictor> MakeReference(
    const Dataset& ds, const ChronoSplit& split, const SplashOptions& model,
    const std::vector<WalRecord>& records, EdgeStream* ref_log) {
  auto ref = std::make_unique<SplashPredictor>(model);
  ref->SetReplicaPrecisionBf16(EnvReplicaBf16());
  EXPECT_TRUE(ref->Prepare(ds, split).ok());
  TrainerOptions fit = SmallFit();
  StreamTrainer trainer(fit);
  trainer.Fit(ref.get(), ds, split);
  ref->SetTraining(false);
  ref->ResetState();

  *ref_log = EdgeStream();
  ref_log->EnsureNodeCapacity(ds.stream.num_nodes());
  for (const WalRecord& rec : records) {
    const size_t begin = ref_log->size();
    for (const TemporalEdge& e : rec.edges) {
      EXPECT_TRUE(ref_log->Append(e).ok());  // WAL stores post-clamp edges
    }
    ref->ObserveBulk(*ref_log, begin, ref_log->size());
    if (!rec.train.empty()) {
      ref->SetTraining(true);
      ref->StageBatch(rec.train);
      ref->TrainStaged();
      ref->SetTraining(false);
    }
  }
  return ref;
}

void ExpectStateBytesEqual(const SplashService& svc,
                           const SplashPredictor& ref, const char* what) {
  ByteWriter a;
  svc.SerializePredictorState(&a);
  ByteWriter b;
  ref.SerializeState(&b);
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.buffer().data(), b.buffer().data(), a.size()))
      << what;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

/// Watermark oracle, post-recovery: a query answered at the recovered
/// watermark is bit-identical to the reference's const path.
void ExpectProbeBitEqual(SplashService* svc, const SplashPredictor& ref,
                         const Dataset& ds, const char* what) {
  ServeClient client(svc);
  const std::vector<PropertyQuery> probe(ds.queries.end() - 32,
                                         ds.queries.end());
  const ServeResponse resp = client.Predict(probe);
  EXPECT_EQ(resp.watermark_seq, svc->recovered_seq()) << what;
  EXPECT_FALSE(resp.degraded) << what;
  SplashQueryScratch scratch;
  ExpectBitEqual(ref.PredictBatchConst(probe, &scratch), resp.scores, what);
}

/// The micro-batch sequence a stopped record_apply_log service applied,
/// as WAL-shaped records — the history oracle when WAL GC deleted the
/// segments. A train batch goes to the first batch ending at its edge
/// count; batches ending at the same count differ only by empty edge
/// ranges, so the apply sequence is the same either way.
std::vector<WalRecord> RecordedHistory(const SplashService& svc) {
  const EdgeStream& log = svc.ingest_log();
  const auto& trains = svc.applied_train_batches();
  std::vector<WalRecord> out;
  size_t next_train = 0;
  uint64_t begin = 0;
  for (const uint64_t end : svc.applied_batch_bounds()) {
    WalRecord rec;
    rec.batch_index = out.size();
    rec.seq_begin = begin;
    rec.seq_end = end;
    for (uint64_t i = begin; i < end; ++i) rec.edges.push_back(log[i]);
    if (next_train < trains.size() && trains[next_train].first == end) {
      rec.train = trains[next_train++].second;
    }
    out.push_back(std::move(rec));
    begin = end;
  }
  EXPECT_EQ(next_train, trains.size());
  return out;
}

/// Recover in-process and run the full oracle against `history`:
/// recovered predictor state bit-equals an uninterrupted replay, the
/// recovered ingest log matches edge for edge, and a probe query at the
/// recovered watermark bit-equals the reference's const query path.
void RecoverAndVerifyAgainst(const std::string& data_dir,
                             const SplashOptions& model, uint64_t expect_seq,
                             const std::vector<WalRecord>& history) {
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  EdgeStream ref_log;
  auto ref = MakeReference(ds, split, model, history, &ref_log);

  SplashService svc(model, DurableOptions(data_dir));
  TrainerOptions fit = SmallFit();
  const Status st = svc.RecoverOrStart(ds, split, &fit);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(svc.recovered_seq(), ref_log.size());
  if (expect_seq != kAnySeq) {
    EXPECT_EQ(svc.recovered_seq(), expect_seq);
  }
  EXPECT_FALSE(svc.degraded());

  // The recovered ingest log is the reference log, edge for edge.
  const EdgeStream& log = svc.ingest_log();
  ASSERT_EQ(log.size(), ref_log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].src, ref_log[i].src) << "edge " << i;
    ASSERT_EQ(log[i].dst, ref_log[i].dst) << "edge " << i;
    ASSERT_EQ(log[i].time, ref_log[i].time) << "edge " << i;
  }

  // Bit-exact predictor state: SLIM params, Adam moments, rings, degree
  // counts, RNG stream — everything SerializeState covers.
  ExpectStateBytesEqual(svc, *ref, "recovered state vs uninterrupted run");

  ExpectProbeBitEqual(&svc, *ref, ds, "post-recovery probe");
  svc.Stop();
}

/// RecoverAndVerifyAgainst the full WAL history in `data_dir` (gc off).
void RecoverAndVerify(const std::string& data_dir, const SplashOptions& model,
                      uint64_t expect_seq) {
  // Read the history FIRST: RecoverOrStart writes a recovery checkpoint
  // and rotates the WAL.
  RecoverAndVerifyAgainst(data_dir, model, expect_seq,
                          CollectFullHistory(data_dir));
}

// ---------------------------------------------------------------------------
// Clean-stop / no-crash recovery
// ---------------------------------------------------------------------------

TEST_F(ServeRecoveryTest, CleanStopThenRecoverIsBitExact) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);

  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_FALSE(svc.recovered_from_checkpoint());
    EXPECT_EQ(svc.recovered_seq(), 0u);
    // RecoverOrStart returns with its base checkpoint durable.
    EXPECT_EQ(svc.Stats().counters.checkpoints_written, 1u);
    struct stat sb {};
    EXPECT_EQ(::stat(CheckpointPath(dir.path(), 0).c_str(), &sb), 0);
    FeedLive(&svc, live, 0, 300);
    svc.Stop();  // drains + final checkpoint
    const ServeStats stats = svc.Stats();
    EXPECT_EQ(stats.counters.ingest_accepted, 300u);
    EXPECT_GT(stats.counters.wal_records, 0u);
    EXPECT_GT(stats.counters.checkpoints_written, 0u);
    EXPECT_EQ(stats.counters.wal_io_errors, 0u);
    EXPECT_FALSE(stats.counters.degraded);
  }
  RecoverAndVerify(dir.path(), model, 300u);
}

TEST_F(ServeRecoveryTest, RecoveryWithNoMidStreamCheckpointReplaysWholeWal) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  {
    SplashServiceOptions opts = DurableOptions(dir.path());
    opts.checkpoint_interval_batches = 0;  // never mid-stream
    opts.checkpoint_on_stop = false;       // never at stop: WAL only
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 200);
    svc.Stop();
  }
  // The only checkpoint is the one recovery wrote at startup (seq 0);
  // every streamed batch lives exclusively in the WAL tail.
  RecoverAndVerify(dir.path(), model, 200u);
}

TEST_F(ServeRecoveryTest, ContinueAfterRecoveryStaysBitExact) {
  // The strongest stream-position check: run A, recover, run B, and the
  // final state must match one uninterrupted replay of A+B's recorded
  // batches. Dropout > 0 makes this fail loudly if the RNG stream or the
  // SLIM train-call counter came back wrong.
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions(/*dropout=*/0.15f);
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 400u);

  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 200);
    svc.Stop();
  }
  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_TRUE(svc.recovered_from_checkpoint());
    EXPECT_EQ(svc.recovered_seq(), 200u);
    FeedLive(&svc, live, 200, 400);
    svc.Stop();
  }
  RecoverAndVerify(dir.path(), model, 400u);
}

TEST_F(ServeRecoveryTest, WalHistoryGapRecoversDegraded) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);

  {
    SplashService svc(model, DurableOptions(dir.path()));
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 250);
    svc.Stop();
  }
  // Lose every checkpoint AND a mid-history WAL segment: replay must start
  // from zero, hit the hole, and stop there. The contract: come up serving
  // at the pre-gap watermark, flagged degraded — never a hang, a crash, or
  // a silently divergent state.
  const auto segs = ListWalSegments(dir.path());
  ASSERT_GE(segs.size(), 3u) << "expected several rotated segments";
  for (uint64_t seq = 0; seq <= 250; ++seq) {
    ::unlink(CheckpointPath(dir.path(), seq).c_str());
  }
  ASSERT_EQ(::unlink(segs[1].path.c_str()), 0);

  SplashService svc(model, DurableOptions(dir.path()));
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_TRUE(svc.degraded());
  EXPECT_FALSE(svc.recovered_from_checkpoint());
  EXPECT_LT(svc.recovered_seq(), 250u);
  ServeClient client(&svc);
  const ServeResponse resp = client.PredictNode(3, ds.stream.max_time());
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.watermark_seq, svc.recovered_seq());
  const ServeStats stats = svc.Stats();
  EXPECT_TRUE(stats.counters.degraded);
  svc.Stop();
}

// ---------------------------------------------------------------------------
// Production mode (record_apply_log off): the watermark comes from the
// checkpoint header, and nothing grows with the number of ingested edges.
// ---------------------------------------------------------------------------

TEST_F(ServeRecoveryTest, ProductionModeRecoversFromCheckpointHeader) {
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions(/*dropout=*/0.15f);
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);

  // Mid-stream checkpoints every 4 batches and none at stop: a checkpoint
  // is written lazily when the batch after the 4th starts, so at least
  // one batch always remains only in the WAL tail.
  SplashServiceOptions opts = ProductionOptions(dir.path());
  opts.checkpoint_on_stop = false;
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 300);
    svc.Stop();
    EXPECT_GT(svc.Stats().counters.checkpoints_written, 1u);
    EXPECT_EQ(svc.ingest_log().size(), 0u);
  }

  const std::vector<WalRecord> history = CollectFullHistory(dir.path());
  EdgeStream ref_log;
  auto ref = MakeReference(ds, split, model, history, &ref_log);
  ASSERT_EQ(ref_log.size(), 300u);

  // Checkpoint + WAL tail.
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_TRUE(svc.recovered_from_checkpoint());
    EXPECT_GT(svc.Stats().counters.recovery_replayed_batches, 0u);
    EXPECT_FALSE(svc.degraded());
    EXPECT_EQ(svc.recovered_seq(), 300u);
    uint64_t seq = 0;
    double time = 0.0;
    svc.PublishedWatermark(&seq, &time);
    EXPECT_EQ(seq, 300u);
    EXPECT_EQ(time, ref_log.max_time());
    EXPECT_EQ(svc.ingest_log().size(), 0u);
    ExpectStateBytesEqual(svc, *ref, "checkpoint + WAL tail");
    ExpectProbeBitEqual(&svc, *ref, ds, "checkpoint + WAL tail probe");
    svc.Stop();  // nothing new applied: the recovery checkpoint is the last
  }

  // The recovery checkpoint alone: an empty tail, so seq and wm_time come
  // from the checkpoint header only.
  CheckpointData ckpt;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &ckpt, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(ckpt.seq, 300u);
  EXPECT_EQ(ckpt.wm_time, ref_log.max_time());
  EXPECT_EQ(ckpt.log.size(), 0u);
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    EXPECT_TRUE(svc.recovered_from_checkpoint());
    EXPECT_EQ(svc.Stats().counters.recovery_replayed_batches, 0u);
    EXPECT_EQ(svc.recovered_seq(), ckpt.seq);
    ExpectStateBytesEqual(svc, *ref, "checkpoint header only");
    ExpectProbeBitEqual(&svc, *ref, ds, "checkpoint header only probe");

    // An edge older than the checkpoint's watermark is clamped to it.
    const TemporalEdge late = live[0];
    ASSERT_LT(late.time, ckpt.wm_time);
    ASSERT_EQ(svc.IngestEdge(late), IngestResult::kAccepted);
    svc.Flush();
    uint64_t seq = 0;
    double time = 0.0;
    svc.PublishedWatermark(&seq, &time);
    EXPECT_EQ(seq, ckpt.seq + 1);
    EXPECT_EQ(time, ckpt.wm_time);
    EXPECT_EQ(svc.Stats().counters.time_regressions, 1u);
    svc.Stop();
  }
}

TEST_F(ServeRecoveryTest, ProductionModeStateStaysConstantPerEdge) {
  // N and then 2N edges over the warmup's fixed node set: the in-RAM log
  // never holds more than one micro-batch and the checkpoint does not
  // grow with the edge count.
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  const size_t n = 200;
  ASSERT_GE(live.size(), 2 * n);
  for (const TemporalEdge& e : live) {
    ASSERT_LT(std::max(e.src, e.dst), ds.stream.num_nodes());
  }

  auto checkpoint_bytes = [&](const std::string& data_dir, size_t edges) {
    SplashServiceOptions opts = ProductionOptions(data_dir);
    opts.checkpoint_interval_batches = 0;  // only the one at Stop
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    EXPECT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    for (size_t begin = 0; begin < edges; begin += 50) {
      FeedLive(&svc, live, begin, std::min(edges, begin + 50));
      svc.Flush();
      EXPECT_LE(svc.ingest_log().size(), opts.microbatch_max_items);
    }
    svc.Stop();
    EXPECT_EQ(svc.published_seq(), edges);
    struct stat sb {};
    EXPECT_EQ(::stat(CheckpointPath(data_dir, edges).c_str(), &sb), 0);
    return static_cast<uint64_t>(sb.st_size);
  };
  TempDir dir_n, dir_2n;
  const uint64_t bytes_n = checkpoint_bytes(dir_n.path(), n);
  const uint64_t bytes_2n = checkpoint_bytes(dir_2n.path(), 2 * n);
  EXPECT_GT(bytes_n, 0u);
  EXPECT_EQ(bytes_n, bytes_2n);
}

// ---------------------------------------------------------------------------
// Background checkpoint writer: checkpoints are written off the apply
// thread, and WAL GC must wait for them to be durable.
// ---------------------------------------------------------------------------

TEST_F(ServeRecoveryTest, CheckpointEveryBatchWithWalGcStaysBitExact) {
  // Every batch hands a checkpoint to the writer while the apply thread
  // keeps appending to the freshly rotated segment — the tightest overlap
  // of GC with live appends.
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions(/*dropout=*/0.15f);
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_GT(live.size(), 300u);

  SplashServiceOptions opts = DurableOptions(dir.path());
  opts.checkpoint_interval_batches = 1;
  opts.checkpoint_on_stop = false;
  opts.gc_wal_on_checkpoint = true;
  std::vector<WalRecord> history;
  uint64_t batches = 0;
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    FeedLive(&svc, live, 0, 300);
    svc.Stop();
    const ServeStats stats = svc.Stats();
    batches = stats.counters.batches_applied;
    EXPECT_GT(batches, 2u);
    // The recovery checkpoint plus one per batch after the first.
    EXPECT_EQ(stats.counters.checkpoints_written, batches);
    EXPECT_EQ(stats.counters.wal_io_errors, 0u);
    history = RecordedHistory(svc);
  }
  ASSERT_EQ(history.size(), batches);

  // No segment holding a record at or past the newest durable
  // checkpoint's cursor was unlinked: the retained WAL carries every
  // batch from that cursor to the end, contiguously.
  CheckpointData ckpt;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &ckpt, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(ckpt.batches_applied, batches - 1);
  uint64_t next = ckpt.batches_applied;
  for (const WalSegmentInfo& seg : ListWalSegments(dir.path())) {
    WalScan scan;
    ASSERT_TRUE(ScanWalFile(seg.path, &scan).ok());
    for (const WalRecord& rec : scan.records) {
      if (rec.batch_index < next) continue;
      ASSERT_EQ(rec.batch_index, next);
      ++next;
    }
  }
  EXPECT_EQ(next, batches);

  RecoverAndVerifyAgainst(dir.path(), model, 300u, history);
}

TEST_F(ServeRecoveryTest, CheckpointWriterFailureDegradesAndKeepsWal) {
  // One edge per batch (Flush after each), so the checkpoint schedule is
  // exact: with an interval of 4 the writer gets seq 4 at batch 5 and
  // seq 8 at batch 9. A directory squatting on seq 8's temp path makes
  // that write fail on the writer thread.
  TempDir dir;
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  ASSERT_TRUE(
      ::mkdir((CheckpointPath(dir.path(), 8) + ".tmp").c_str(), 0755) == 0);

  SplashServiceOptions opts = DurableOptions(dir.path());
  opts.checkpoint_interval_batches = 4;
  opts.checkpoint_on_stop = false;
  opts.gc_wal_on_checkpoint = true;
  std::vector<WalRecord> history;
  {
    SplashService svc(model, opts);
    TrainerOptions fit = SmallFit();
    ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
    for (size_t i = 0; i < 12; ++i) {
      ASSERT_EQ(svc.IngestEdge(live[i]), IngestResult::kAccepted);
      svc.Flush();
    }
    svc.Stop();
    const ServeStats stats = svc.Stats();
    EXPECT_EQ(stats.counters.batches_applied, 12u);
    EXPECT_EQ(stats.counters.checkpoints_written, 2u);  // seq 0 and 4
    EXPECT_GT(stats.counters.wal_io_errors, 0u);
    EXPECT_TRUE(stats.counters.degraded);
    EXPECT_TRUE(svc.degraded());
    EXPECT_EQ(stats.counters.wal_records, 12u);  // the WAL kept logging
    history = RecordedHistory(svc);
  }

  // The newest checkpoint is seq 4; the failed write GC'd nothing, so
  // both segments past it survive.
  CheckpointData ckpt;
  bool found = false;
  ASSERT_TRUE(LoadLatestCheckpoint(dir.path(), &ckpt, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(ckpt.seq, 4u);
  struct stat sb {};
  EXPECT_EQ(::stat(WalSegmentPath(dir.path(), 4).c_str(), &sb), 0);
  EXPECT_EQ(::stat(WalSegmentPath(dir.path(), 8).c_str(), &sb), 0);

  RecoverAndVerifyAgainst(dir.path(), model, 12u, history);
}

// ---------------------------------------------------------------------------
// Crash-point matrix: fork, arm, crash, recover, verify — for every
// compiled-in crash point.
// ---------------------------------------------------------------------------

struct CrashCase {
  CrashPoint point;
  uint32_t nth;
};

class ServeCrashPointTest : public ::testing::TestWithParam<CrashCase> {
 protected:
  void SetUp() override {
    ThreadPool::SetGlobalThreads(1);
    DisarmAllCrashPoints();
  }
  void TearDown() override { DisarmAllCrashPoints(); }
};

/// Child body: arm one point, run a durable service over the live stream.
/// Reaches the crash point and dies 137, or exits 0 (test then fails).
/// gtest-free on purpose: a forked child must not touch the parent's test
/// machinery, only _exit.
[[noreturn]] void RunCrashChild(const std::string& data_dir, CrashCase c,
                                bool gc_wal = false) {
  ArmCrashPoint(c.point, c.nth);
  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  const std::vector<TemporalEdge> live = LiveEdges(ds, split);
  SplashServiceOptions opts = DurableOptions(data_dir);
  opts.gc_wal_on_checkpoint = gc_wal;
  SplashService svc(model, opts);
  TrainerOptions fit = SmallFit();
  if (!svc.RecoverOrStart(ds, split, &fit).ok()) _exit(3);
  FeedLive(&svc, live, 0, live.size());
  svc.Stop();
  _exit(0);  // crash point never fired
}

TEST_P(ServeCrashPointTest, CrashRecoverBitExact) {
  const CrashCase c = GetParam();
  TempDir dir;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunCrashChild(dir.path(), c);  // never returns

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode)
      << "crash point " << CrashPointName(c.point) << " never fired";

  // The child died mid-write somewhere on the durability path. Recovery
  // must land on a CRC-valid prefix and match the uninterrupted run.
  RecoverAndVerify(dir.path(), RecoveryModelOptions(), kAnySeq);
}

TEST_F(ServeRecoveryTest, CrashBeforeRenameWithWalGcLeavesNoGap) {
  // WAL GC is the writer's last step: a crash before the rename must
  // leave the previous checkpoint's WAL intact, so recovery replays past
  // it without a gap.
  TempDir dir;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RunCrashChild(dir.path(), {CrashPoint::kCheckpointBeforeRename, 3},
                  /*gc_wal=*/true);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode);

  const SplashOptions model = RecoveryModelOptions();
  const Dataset ds = MakeWarmup();
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.15, 0.3);
  SplashServiceOptions opts = DurableOptions(dir.path());
  opts.gc_wal_on_checkpoint = true;
  SplashService svc(model, opts);
  TrainerOptions fit = SmallFit();
  ASSERT_TRUE(svc.RecoverOrStart(ds, split, &fit).ok());
  EXPECT_FALSE(svc.degraded());
  EXPECT_TRUE(svc.recovered_from_checkpoint());
  EXPECT_GT(svc.Stats().counters.recovery_replayed_batches, 0u);
  svc.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, ServeCrashPointTest,
    ::testing::Values(
        // The startup recovery checkpoint is hit #1 for checkpoint points;
        // nth=2 crashes the first mid-stream checkpoint instead. WAL
        // points use mid-stream hit counts directly.
        CrashCase{CrashPoint::kWalAfterAppend, 9},
        CrashCase{CrashPoint::kWalBeforeFsync, 7},
        CrashCase{CrashPoint::kWalMidFrame, 6},
        CrashCase{CrashPoint::kCheckpointMidWrite, 2},
        CrashCase{CrashPoint::kCheckpointBeforeRename, 2},
        CrashCase{CrashPoint::kCheckpointAfterRename, 2}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      std::string name = CrashPointName(info.param.point);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace splash
