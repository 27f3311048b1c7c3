// Copyright 2026 The SPLASH Reproduction Authors.
//
// Structure-of-arrays edge stream: three parallel arrays (src, dst, time)
// instead of an array of structs. Sequential replay — the single hottest
// loop in the system — then touches 16 bytes per edge instead of 24 (padded)
// and each array prefetches independently. Appending is amortized O(1).

#ifndef SPLASH_GRAPH_EDGE_STREAM_H_
#define SPLASH_GRAPH_EDGE_STREAM_H_

#include <cstddef>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace splash {

class EdgeStream {
 public:
  EdgeStream() = default;

  /// Appends one edge. Edges must arrive in non-decreasing time order
  /// (it is a *stream*); violations are rejected so downstream quantile /
  /// split math can assume sorted times. Amortized O(1): the three arrays
  /// grow geometrically and in lockstep.
  Status Append(const TemporalEdge& e);

  /// Pre-grows the arrays to hold `n` edges without reallocation.
  void Reserve(size_t n);

  /// Forgets every edge but keeps the arrays' capacity and the declared
  /// node space, so a reused per-batch stream stops allocating once it
  /// has held its largest batch.
  void Clear() {
    src_.clear();
    dst_.clear();
    time_.clear();
  }

  /// Declares that node ids in [0, n) may appear. Tracks the node-space
  /// size; consumers (neighbor memory, feature tables) size off num_nodes().
  void EnsureNodeCapacity(size_t n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  size_t size() const { return time_.size(); }
  bool empty() const { return time_.empty(); }

  /// Number of distinct node ids the stream may address (max id + 1).
  size_t num_nodes() const { return num_nodes_; }

  /// Gathered view of edge i. The SoA arrays are the source of truth; this
  /// materializes a TemporalEdge in registers.
  TemporalEdge operator[](size_t i) const {
    return TemporalEdge(src_[i], dst_[i], time_[i]);
  }

  // Raw column access for kernels that want to stream one attribute.
  const NodeId* src_data() const { return src_.data(); }
  const NodeId* dst_data() const { return dst_.data(); }
  const double* time_data() const { return time_.data(); }

  double min_time() const { return time_.empty() ? 0.0 : time_.front(); }
  double max_time() const { return time_.empty() ? 0.0 : time_.back(); }

  /// Time below which `frac` of the edges fall. frac is clamped to [0, 1].
  /// O(1) because the stream is chronological.
  double TimeQuantile(double frac) const;

 private:
  std::vector<NodeId> src_;
  std::vector<NodeId> dst_;
  std::vector<double> time_;
  size_t num_nodes_ = 0;
};

}  // namespace splash

#endif  // SPLASH_GRAPH_EDGE_STREAM_H_
