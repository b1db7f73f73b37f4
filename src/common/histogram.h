// Latency histogram with log-spaced buckets and exact percentile support
// for the value ranges experiments care about (1 µs .. ~100 s).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"

namespace wiera {

// Records durations; reports count/mean/min/max and percentiles. Buckets are
// log1.12-spaced which keeps percentile error under ~6% across the range —
// plenty for comparing hundreds-of-ms WAN latencies against sub-ms memory
// hits.
class LatencyHistogram {
 public:
  LatencyHistogram() { counts_.fill(0); }
  // Override the exact-sample retention cap. The default keeps small-n
  // percentiles exact and flips to the bucketed approximation past
  // kExactSamples; an analysis-side consumer (e.g. the SLO oracle's
  // windowed p99 comparison) can pass a cap larger than any realistic
  // sample count to stay exact nearest-rank throughout.
  explicit LatencyHistogram(int64_t exact_cap) : exact_cap_(exact_cap) {
    counts_.fill(0);
  }

  void record(Duration d);

  int64_t count() const { return total_count_; }
  Duration sum() const { return Duration(sum_us_); }
  Duration min() const { return total_count_ ? min_ : Duration::zero(); }
  Duration max() const { return max_; }
  Duration mean() const {
    return total_count_ ? Duration(sum_us_ / total_count_) : Duration::zero();
  }
  // q in [0,1]. Exact (nearest-rank over retained raw samples) while the
  // histogram holds <= kExactSamples recordings; bucket-upper-bound
  // approximation beyond that. The old always-bucketed path had an
  // interpolation edge at n=1,2: with two samples 1ms and 100ms, p50
  // reported the 1ms sample's *bucket upper bound* clamped into [min,max] —
  // ~1.08ms rather than 1ms — and tiny-n hedge/threshold triggers keyed off
  // that drift. Nearest-rank on the raw samples makes small-n percentiles
  // exact: n=1 reports the sample at every q; n=2 reports the lower sample
  // for q<=0.5 and the upper one above.
  Duration percentile(double q) const;
  Duration p50() const { return percentile(0.50); }
  Duration p95() const { return percentile(0.95); }
  Duration p99() const { return percentile(0.99); }

  void merge(const LatencyHistogram& other);
  // The recordings made since `earlier` was copied from this same
  // instrument (a windowed delta of a cumulative histogram): bucket counts,
  // count and sum subtract. While both sides are still exact, `earlier`'s
  // raw samples are a prefix of ours (record() only appends), so the delta
  // keeps the exact suffix and its percentiles are exact nearest-rank over
  // just the window; after the bucketed flip the delta is bucket-resolution
  // with min/max clamped to the full-run envelope. Returns an empty
  // histogram if `earlier` is not a plausible prefix (more recordings than
  // this).
  LatencyHistogram delta_since(const LatencyHistogram& earlier) const;
  void reset();

  // e.g. "n=1000 mean=12.3ms p50=10ms p95=40ms p99=80ms max=120ms"
  std::string summary() const;

 private:
  static constexpr int kBuckets = 256;
  // Raw samples retained for exact percentiles until the histogram grows
  // past this; beyond it the log-bucketed approximation (<~6% error) takes
  // over and the raw buffer is dropped.
  static constexpr int kExactSamples = 64;
  static int bucket_for(int64_t us);
  static int64_t bucket_upper_us(int bucket);

  std::array<int64_t, kBuckets> counts_{};
  int64_t total_count_ = 0;
  int64_t sum_us_ = 0;
  int64_t exact_cap_ = kExactSamples;
  Duration min_ = Duration::max();
  Duration max_ = Duration::zero();
  bool exact_ = true;
  std::vector<int64_t> raw_;  // sorted lazily at percentile() time
};

}  // namespace wiera
