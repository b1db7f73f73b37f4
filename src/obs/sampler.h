// Registry scraper for the metrics pipeline (docs/METRICS_PIPELINE.md).
//
// A Sampler turns the Registry's instantaneous instruments into ring-buffer
// time series (obs::TimeSeries): each scrape() appends one sample per
// counter/gauge series and three per histogram series (cumulative count,
// cumulative sum in µs, and the instantaneous p99). Series ids are the
// registry's own "name{labels}" keys, with "#count" / "#sum_us" / "#p99_us"
// suffixes for the histogram-derived series, so a series id in a dump maps
// straight back to the instrument it came from.
//
// The Sampler owns no timer: a sim-layer driver (sim::ObsPipeline) calls
// scrape() on the virtual clock. Scraping is a pure read of the registry
// plus ring-buffer writes — it schedules nothing and perturbs nothing — and
// a Sampler that is never scraped holds no series at all, which is what
// keeps the pipeline default-off and byte-invariant.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace wiera::obs {

class Sampler {
 public:
  struct Config {
    // Ring capacity of every series created by this sampler.
    size_t keep = 512;
  };

  Sampler() = default;
  explicit Sampler(Config config) : config_(config) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Append one sample per registry series at virtual time `now`. Series are
  // created on first sight; a series that disappears from the registry
  // (never happens today — instruments are immortal) just stops growing.
  void scrape(const Registry& registry, TimePoint now);

  int64_t scrapes() const { return scrapes_; }
  TimePoint last_scrape() const { return last_scrape_; }
  size_t series_count() const { return series_.size(); }

  // nullptr when the id was never scraped. Ids: "name{labels}" for counters
  // and gauges, "name{labels}#count|#sum_us|#p99_us" for histograms.
  const TimeSeries* series(const std::string& id) const;

  // {"scrapes":N,"series":{"id":{...TimeSeries...},...}} — sorted ids, the
  // shape sweep artifacts store next to the telemetry snapshot.
  std::string render_json() const;

 private:
  TimeSeries& upsert(const std::string& id);

  Config config_;
  int64_t scrapes_ = 0;
  TimePoint last_scrape_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace wiera::obs
