// Copyright 2026 The SPLASH Reproduction Authors.
//
// ShardedSplashService (DESIGN.md §8): S = 2^k SplashService shards behind
// one QueryBackend. Ingest and single-node queries partition by
// `node & (S-1)` — the same scheme NeighborMemory uses one level down, so
// a node's entire streaming state (ring, degree, feature cache, SLIM
// updates from its labels) lives on exactly one shard:
//
//   IngestEdge(e) ──▶ shard[e.dst & (S-1)]       (destination-owned, like
//   SubmitTrain(q) ─▶ shard[q.node & (S-1)]       the neighbor rings)
//   PredictNode(v) ─▶ shard[v & (S-1)]            (one shard, one snapshot)
//   Predict(batch)/ScoreEdge ─▶ fan-out to owning shards, rows reassembled
//                               in caller order under a composite watermark
//
// Each shard is a full SplashService: its own apply thread, replica pair,
// WAL/checkpoint directory (data_dir/shard-<i>/), and watermark. The router owns no lock on the query or ingest path — it is
// pure routing; shard-level machinery provides all synchronization.
//
// Composite watermark contract: a routed response carries one
// (shard, seq, time) entry per shard that contributed rows, plus scalar
// summaries (min seq / max time). Each shard's pair is consistent under
// that shard's snapshot pin and each shard's seq is monotone per client;
// there is NO cross-shard ordering promise — shard i at seq 100 and shard
// j at seq 40 says nothing about arrival interleaving between them. What
// IS promised (serve_router_test pins it): each row of a routed response
// is bit-identical to a serial replay of its owning shard's ingest log
// truncated at that shard's watermark entry.

#ifndef SPLASH_SERVE_ROUTER_H_
#define SPLASH_SERVE_ROUTER_H_

#include <memory>
#include <vector>

#include "core/status.h"
#include "serve/service.h"
#include "serve/shard.h"

namespace splash {

struct ShardedServiceOptions {
  /// Shard count; must be a power of two (the partition is a mask).
  uint32_t num_shards = 1;
  /// Per-shard service options, applied to every shard. A non-empty
  /// data_dir becomes the parent directory: shard i persists under
  /// `data_dir/shard-<i>/`.
  SplashServiceOptions shard;

  /// Field-named sanity check (shard count + the embedded per-shard
  /// options); ShardedSplashService::Start/RecoverOrStart run it first.
  Status Validate() const;
};

class ShardedSplashService final : public QueryBackend {
 public:
  ShardedSplashService(const SplashOptions& model_opts,
                       const ShardedServiceOptions& opts);
  ~ShardedSplashService() override;

  /// Starts every shard on the same warmup/split (each shard runs the
  /// identical deterministic Prepare/Fit, so all shards start from the
  /// same fitted weights). Stops already-started shards on failure.
  Status Start(const Dataset& warmup, const ChronoSplit& split,
               const TrainerOptions* fit = nullptr);

  /// Durable start: creates data_dir, then RecoverOrStart on every shard
  /// against its own subdirectory. Shards recover independently — one
  /// shard's lost history degrades that shard (and routed responses that
  /// touch it), not its siblings.
  Status RecoverOrStart(const Dataset& warmup, const ChronoSplit& split,
                        const TrainerOptions* fit = nullptr);

  // ---- QueryBackend (serve/shard.h) ----

  /// Routes the batch. When every row lands on one shard (always true for
  /// S=1 and PredictNode) the batch is forwarded whole — one virtual hop,
  /// no copy — and the composite stamp is that shard's watermark. Mixed
  /// batches are split into per-shard sub-batches (caller scratch), scored
  /// per shard, and reassembled in caller order.
  void ScoreQueries(const std::vector<PropertyQuery>& queries,
                    ClientScratch* scratch, ServeResponse* resp) override;

  /// Routes by destination: shard[e.dst & (S-1)]. An invalid edge is
  /// rejected by whichever shard the masked id lands on (counted there).
  IngestResult IngestEdge(const TemporalEdge& e) override;
  IngestResult SubmitTrain(const PropertyQuery& q) override;

  /// Flush/Stop every shard (in shard order; each blocks until that
  /// shard's accepted items are published).
  void Flush() override;
  void Stop() override;
  /// True while every shard runs.
  bool running() const override;
  /// Total edges published across shards.
  uint64_t published_seq() const override;
  CompositeWatermark Watermark() const override;
  /// Exact aggregate: counters via ServeCounters::MergeFrom, latency
  /// summaries from bucket-wise histogram merges across shards (plus this
  /// router's own clients) — never summary-of-summaries.
  ServeStats Stats() const override;

  // ---- Router surface ----

  /// OR over shards (any shard degraded degrades the service).
  bool degraded() const;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t ShardOf(NodeId node) const { return node & mask_; }
  /// Direct shard access (tests, per-shard probes); the shard keeps its
  /// full single-service surface.
  SplashService& shard(uint32_t i) { return *shards_[i]; }
  const SplashService& shard(uint32_t i) const { return *shards_[i]; }

 private:
  ShardedServiceOptions opts_;
  uint32_t mask_ = 0;
  std::vector<std::unique_ptr<SplashService>> shards_;
};

/// The routed reader handle is the plain ServeClient over the QueryBackend
/// interface — `RoutedClient client(&router)` and `ServeClient
/// client(&service)` are the same class, same scratch discipline, same
/// canonical Predict. The alias exists to make call sites say what they
/// route through.
using RoutedClient = ServeClient;

}  // namespace splash

#endif  // SPLASH_SERVE_ROUTER_H_
