#include "obs/sampler.h"

#include "common/strings.h"

namespace wiera::obs {

TimeSeries& Sampler::upsert(const std::string& id) {
  auto it = series_.find(id);
  if (it == series_.end()) {
    it = series_.emplace(id, TimeSeries(config_.keep)).first;
  }
  return it->second;
}

void Sampler::scrape(const Registry& registry, TimePoint now) {
  registry.for_each_counter(
      [&](const std::string& name, const std::string& labels,
          const Counter& c) {
        upsert(name + labels).record(now, static_cast<double>(c.value()));
      });
  registry.for_each_gauge([&](const std::string& name,
                              const std::string& labels, const Gauge& g) {
    upsert(name + labels).record(now, g.value());
  });
  registry.for_each_histogram(
      [&](const std::string& name, const std::string& labels,
          const Histogram& h) {
        const std::string id = name + labels;
        upsert(id + "#count").record(now, static_cast<double>(h.count()));
        upsert(id + "#sum_us").record(now, static_cast<double>(h.sum().us()));
        upsert(id + "#p99_us")
            .record(now, static_cast<double>(h.percentile(0.99).us()));
      });
  scrapes_++;
  last_scrape_ = now;
}

const TimeSeries* Sampler::series(const std::string& id) const {
  auto it = series_.find(id);
  return it == series_.end() ? nullptr : &it->second;
}

std::string Sampler::render_json() const {
  std::string out =
      str_format("{\"scrapes\":%lld,\"series\":{",
                 static_cast<long long>(scrapes_));
  bool first = true;
  for (const auto& [id, ts] : series_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(id) + "\":" + ts.render_json();
  }
  out += "}}";
  return out;
}

}  // namespace wiera::obs
