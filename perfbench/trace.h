// Copyright 2026 The SPLASH Reproduction Authors.
//
// Measurement helpers of the end-to-end benchmark driver: a monotonic
// clock, sample sets reported as median + the highest percentile that
// still has at least ten samples beyond it, process CPU / peak RSS probes,
// and an in-memory span recorder. Spans are recorded around the driver's
// own calls into each layer's public functions (never inside the program)
// and written out once, when the run ends.

#ifndef SPLASH_PERFBENCH_TRACE_H_
#define SPLASH_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace splash::perfbench {

/// Seconds since the first call (steady clock).
inline double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU seconds consumed by the whole process (every thread).
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of this process, in MB (VmHWM).
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// A set of timing (or size) samples.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Sum() const {
    double s = 0.0;
    for (double x : v_) s += x;
    return s;
  }

  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) {
    if (v_.empty()) return 0.0;
    Sort();
    const double rank = std::ceil(q * static_cast<double>(v_.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v_[std::min(idx, v_.size() - 1)];
  }
  double Median() { return Quantile(0.5); }

  /// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
  /// beyond it; {"max", max} when there are fewer than 20 samples.
  std::pair<std::string, double> Tail() {
    static const std::pair<const char*, double> kLadder[] = {
        {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}, {"p50", 0.5}};
    for (const auto& [label, q] : kLadder) {
      if (static_cast<double>(v_.size()) * (1.0 - q) >= 10.0) {
        return {label, Quantile(q)};
      }
    }
    Sort();
    return {"max", v_.empty() ? 0.0 : v_.back()};
  }

 private:
  void Sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Samples split into windows (stretches of a run's time, or whole
/// repetitions). A run reports the median over windows of each window's
/// quantile, so one disturbed stretch moves the figure less than it would
/// move a quantile of the pooled samples. Use an odd number of windows.
class Windowed {
 public:
  explicit Windowed(size_t windows) : w_(windows == 0 ? 1 : windows) {}

  /// Adds `v` to the window that time `t` falls in, for windows of equal
  /// length over [t0, t0 + span).
  void AddAt(double t, double t0, double span, double v) {
    const double f = span > 0.0 ? (t - t0) / span : 0.0;
    const double idx = std::floor(f * static_cast<double>(w_.size()));
    Add(static_cast<size_t>(
            std::clamp(idx, 0.0, static_cast<double>(w_.size() - 1))),
        v);
  }
  void Add(size_t window, double v) {
    w_[std::min(window, w_.size() - 1)].Add(v);
  }
  void Append(size_t window, const Samples& s) {
    w_[std::min(window, w_.size() - 1)].Append(s);
  }
  void Merge(const Windowed& o) {
    for (size_t i = 0; i < w_.size() && i < o.w_.size(); ++i) {
      w_[i].Append(o.w_[i]);
    }
  }

  /// Median over non-empty windows of the window's q-quantile.
  double MedianOf(double q) {
    Samples per_window;
    for (Samples& s : w_) {
      if (!s.empty()) per_window.Add(s.Quantile(q));
    }
    return per_window.Median();
  }

  /// Median over non-empty windows of the window's mean.
  double MedianOfMeans() const {
    Samples per_window;
    for (const Samples& s : w_) {
      if (!s.empty()) per_window.Add(s.Sum() / static_cast<double>(s.size()));
    }
    return per_window.Median();
  }

  /// Every sample, pooled.
  Samples Pooled() const {
    Samples all;
    for (const Samples& s : w_) all.Append(s);
    return all;
  }

 private:
  std::vector<Samples> w_;
};

/// One timed call into a layer: name, start, end (seconds, Now() clock)
/// and the micro-batch (or replay step) it belongs to.
struct Span {
  const char* name;
  double start;
  double end;
  uint64_t batch;
};

/// In-memory span log. Durations are also folded into per-name sample
/// sets so the report does not rescan the log. Time() may be called from
/// several threads (the pipelined executor observes on its own thread);
/// the readers below run once recording is over.
class Tracer {
 public:
  template <typename F>
  void Time(const char* name, uint64_t batch, F&& f) {
    const double t0 = Now();
    f();
    const double t1 = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t1, batch});
    by_name_[name].Add(t1 - t0);
  }

  /// Duration samples (seconds) of every span named `name`.
  Samples& Durations(const std::string& name) { return by_name_[name]; }

  /// Sum of the durations of the spans named in `names`, per batch id.
  std::map<uint64_t, double> PerBatchSum(
      const std::vector<std::string>& names) const {
    std::map<uint64_t, double> out;
    for (const Span& s : spans_) {
      for (const std::string& n : names) {
        if (n == s.name) {
          out[s.batch] += s.end - s.start;
          break;
        }
      }
    }
    return out;
  }

  size_t size() const { return spans_.size(); }

  /// Writes every span as "name<TAB>start_s<TAB>end_s<TAB>batch".
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_s\tend_s\tbatch\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%.9f\t%.9f\t%llu\n", s.name, s.start, s.end,
                   static_cast<unsigned long long>(s.batch));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, Samples> by_name_;
};

/// Runs `f`, recording it as a span when `tr` is set.
template <typename F>
void Timed(Tracer* tr, const char* name, uint64_t batch, F&& f) {
  if (tr != nullptr) {
    tr->Time(name, batch, f);
  } else {
    f();
  }
}

}  // namespace splash::perfbench

#endif  // SPLASH_PERFBENCH_TRACE_H_
