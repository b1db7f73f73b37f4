// Fixed-capacity ring-buffer time series for the metrics pipeline
// (docs/METRICS_PIPELINE.md).
//
// The Sampler scrapes obs::Registry instruments on the virtual clock and
// appends one (time, value) sample per series per scrape. Capacity is fixed
// at construction: once full the ring drops the oldest sample, so a series
// always holds the tail of the run — the window an alert rule or a failure
// report actually wants — at bounded memory. Everything here is pure
// bookkeeping on caller-supplied virtual timestamps; nothing reads a wall
// clock or schedules sim events, so an armed sampler stays deterministic and
// an unarmed one is invisible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace wiera::obs {

class TimeSeries {
 public:
  struct Sample {
    TimePoint time;
    double value = 0.0;
  };

  explicit TimeSeries(size_t capacity = kDefaultCapacity);

  // Append a sample. Timestamps must be non-decreasing (the sampler's scrape
  // loop guarantees this); a stale timestamp is recorded as-is but windowed
  // queries assume order. Drops the oldest sample when full.
  void record(TimePoint t, double value);

  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  bool empty() const { return size_ == 0; }
  // Samples evicted by the ring so far.
  int64_t dropped() const { return dropped_; }

  // i in [0, size): oldest to newest — deterministic iteration order.
  const Sample& at(size_t i) const;
  const Sample& latest() const { return at(size_ - 1); }
  const Sample& oldest() const { return at(0); }

  // ---- windowed queries over samples with time in [now - window, now] ----
  // All return 0 (or zero-duration rate) when fewer than the required
  // samples fall inside the window.

  // Newest minus oldest in-window value: the increase of a cumulative
  // counter over the window. Needs >= 2 in-window samples.
  double delta_over(Duration window, TimePoint now) const;
  // delta_over divided by the in-window time span, per second.
  double rate_over(Duration window, TimePoint now) const;
  // Nearest-rank percentile (q in [0,1]) of the in-window sample *values*
  // (e.g. the sampled p99 gauge over the last 500ms). Needs >= 1 sample.
  double percentile_over(Duration window, TimePoint now, double q) const;
  double max_over(Duration window, TimePoint now) const;
  double mean_over(Duration window, TimePoint now) const;
  // Number of samples inside the window.
  size_t samples_in(Duration window, TimePoint now) const;
  // True when the retained samples span the whole window, i.e. the oldest
  // retained sample is at or before now - window. Burn-rate rules require
  // coverage so a half-filled window cannot fire (or mask) an alert.
  bool covers(Duration window, TimePoint now) const;

  // {"n":3,"dropped":0,"samples":[[t_us,v],...]} with deterministic order.
  std::string render_json() const;

 private:
  static constexpr size_t kDefaultCapacity = 512;

  // First index (in logical oldest-to-newest order) with time >= t.
  size_t lower_bound(TimePoint t) const;

  std::vector<Sample> buf_;
  size_t head_ = 0;  // index of the oldest sample
  size_t size_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace wiera::obs
