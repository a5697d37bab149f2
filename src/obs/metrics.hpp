// Metrics registry: named counters, gauges and fixed-bucket histograms,
// rendered as an aligned text table. The registry itself is passive —
// round_metrics.hpp populates one from a trace, and mcksim / the bench
// drivers print it under --metrics.
//
// Metrics are kept in insertion order so the rendered table (and any CSV
// derived from it) is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mck::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { value_ += d; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket catches the rest. Also tracks count/sum/min/
/// max so mean() is exact rather than bucket-approximated.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)),
        counts_(bounds_.size() + 1, 0) {}

  void observe(double x) {
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    ++counts_[i];
    ++count_;
    sum_ += x;
    if (count_ == 1 || x < min_) min_ = x;
    if (count_ == 1 || x > max_) max_ = x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Bucket-interpolated quantile estimate for q in [0, 1]: finds the
  /// bucket holding the q-th observation and interpolates linearly inside
  /// it, clamping bucket edges to the observed [min, max] so single-bucket
  /// histograms and the open-ended overflow bucket stay finite. Exact at
  /// q=0 (min) and q=1 (max); 0 with no observations.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  double min() const { return min_; }
  double max() const { return max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  std::size_t num_buckets() const { return counts_.size(); }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Insertion-ordered collection of named metrics. Lookup is linear —
/// registries are built once per run from a trace, not on the hot path.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Renders every metric as an aligned table (one row per counter/gauge;
  /// histograms get a row per bucket plus a summary row).
  std::string render() const;

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    std::string name;
    Counter counter;
    Gauge gauge;
    std::vector<Histogram> histogram;  // 0 or 1; Histogram lacks default ctor
  };

  Entry* find(const std::string& name);

  std::vector<Entry> entries_;
};

}  // namespace mck::obs
