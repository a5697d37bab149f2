#include "obs/metrics.hpp"

#include "stats/table.hpp"
#include "util/assert.hpp"

namespace mck::obs {

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    double lo = i == 0 ? min_ : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : max_;
    if (lo < min_) lo = min_;
    if (hi > max_) hi = max_;
    if (hi < lo) hi = lo;
    double before = static_cast<double>(seen);
    seen += counts_[i];
    if (static_cast<double>(seen) >= target) {
      double frac = (target - before) / static_cast<double>(counts_[i]);
      return lo + (hi - lo) * frac;
    }
  }
  return max_;
}

Registry::Entry* Registry::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name) {
  if (Entry* e = find(name)) {
    MCK_ASSERT(e->kind == Entry::Kind::kCounter);
    return e->counter;
  }
  entries_.push_back(Entry{Entry::Kind::kCounter, name, {}, {}, {}});
  return entries_.back().counter;
}

Gauge& Registry::gauge(const std::string& name) {
  if (Entry* e = find(name)) {
    MCK_ASSERT(e->kind == Entry::Kind::kGauge);
    return e->gauge;
  }
  entries_.push_back(Entry{Entry::Kind::kGauge, name, {}, {}, {}});
  return entries_.back().gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  if (Entry* e = find(name)) {
    MCK_ASSERT(e->kind == Entry::Kind::kHistogram);
    return e->histogram.front();
  }
  entries_.push_back(Entry{Entry::Kind::kHistogram, name, {}, {}, {}});
  entries_.back().histogram.emplace_back(std::move(bounds));
  return entries_.back().histogram.front();
}

std::string Registry::render() const {
  stats::TextTable table({"metric", "value"});
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        table.add_row({e.name, stats::fmt_u("%llu", e.counter.value())});
        break;
      case Entry::Kind::kGauge:
        table.add_row({e.name, stats::fmt("%.4f", e.gauge.value())});
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = e.histogram.front();
        // An empty histogram has no mean/min/max/quantiles; printing the
        // accumulator zeros would be indistinguishable from a real 0.
        table.add_row(
            {e.name,
             h.count() == 0
                 ? std::string("0 obs, mean - [-, -] p50 - p95 - p99 -")
                 : stats::fmt_u("%llu", h.count()) + " obs, mean " +
                       stats::fmt("%.4f", h.mean()) + " [" +
                       stats::fmt("%.4f", h.min()) + ", " +
                       stats::fmt("%.4f", h.max()) + "] p50 " +
                       stats::fmt("%.4f", h.p50()) + " p95 " +
                       stats::fmt("%.4f", h.p95()) + " p99 " +
                       stats::fmt("%.4f", h.p99())});
        for (std::size_t i = 0; i < h.num_buckets(); ++i) {
          std::string label =
              i < h.bounds().size()
                  ? "  <= " + stats::fmt("%g", h.bounds()[i])
                  : std::string("  > ") +
                        (h.bounds().empty()
                             ? "all"
                             : stats::fmt("%g", h.bounds().back()));
          table.add_row({e.name + label, stats::fmt_u("%llu", h.bucket(i))});
        }
        break;
      }
    }
  }
  return table.render();
}

}  // namespace mck::obs
