#include "sim/attribution.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"

namespace wiera::sim {

std::string render_events_json(const std::vector<PlanEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += str_format("{\"at_us\":%lld,\"event\":\"%s\"}",
                      static_cast<long long>(events[i].at.us()),
                      json_escape(events[i].describe()).c_str());
  }
  return out + "]";
}

void AttributionReport::set_window(TimePoint start, TimePoint end) {
  has_window_ = true;
  window_start_ = start;
  window_end_ = end;
}

void AttributionReport::add_violation(const SloViolation& v) {
  violations_.push_back(v);
}

void AttributionReport::add_violations(const std::vector<SloViolation>& vs) {
  violations_.insert(violations_.end(), vs.begin(), vs.end());
}

void AttributionReport::add_violation(std::string check, std::string message,
                                      TimePoint at, uint64_t trace_id) {
  SloViolation v;
  v.check = std::move(check);
  v.message = std::move(message);
  v.trace_id = trace_id;
  v.at = at;
  violations_.push_back(std::move(v));
}

void AttributionReport::set_timeline(const std::vector<PlanEvent>& timeline) {
  faults_.clear();
  scenario_events_.clear();
  for (const PlanEvent& e : timeline) {
    (e.family() == PlanEvent::Family::kFault ? faults_ : scenario_events_)
        .push_back(e);
  }
}

void AttributionReport::set_alerts(const obs::AlertRules& alerts) {
  alerts_ = alerts.firings();
}

void AttributionReport::add_key_stats(const std::string& instance,
                                      const obs::KeyStats& stats,
                                      TimePoint now) {
  if (!stats.enabled() || stats.total_accesses() == 0) return;
  for (const obs::KeyStats::Entry& e : stats.top_keys(5, now)) {
    hot_.push_back({instance, e, /*is_tenant=*/false});
  }
  for (const obs::KeyStats::Entry& e : stats.top_tenants(3, now)) {
    hot_.push_back({instance, e, /*is_tenant=*/true});
  }
}

void AttributionReport::set_tracer(const obs::Tracer& tracer, size_t keep) {
  const auto [w_start, w_end] = effective_window();
  std::vector<WorstSpan> candidates;
  tracer.for_each_span([&](const obs::Span& s) {
    if (s.open()) return;
    if (s.end < w_start || s.start > w_end) return;
    candidates.push_back({s.name, s.host, s.status, s.trace_id, s.start,
                          s.duration()});
  });
  // Error spans first, then longest; start time then name break ties so the
  // selection is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const WorstSpan& a, const WorstSpan& b) {
              const bool a_err = a.status != "ok";
              const bool b_err = b.status != "ok";
              if (a_err != b_err) return a_err;
              if (a.duration != b.duration) return a.duration > b.duration;
              if (a.start != b.start) return a.start < b.start;
              return a.name < b.name;
            });
  if (candidates.size() > keep) candidates.resize(keep);
  worst_spans_ = std::move(candidates);
}

std::pair<TimePoint, TimePoint> AttributionReport::effective_window() const {
  if (has_window_) return {window_start_, window_end_};
  if (violations_.empty()) return {TimePoint::origin(), TimePoint::max()};
  TimePoint lo = TimePoint::max();
  TimePoint hi = TimePoint::origin();
  for (const SloViolation& v : violations_) {
    lo = std::min(lo, v.at);
    hi = std::max(hi, v.at);
  }
  // A single evidence instant still deserves context around it.
  return {lo - sec(2), hi + sec(2)};
}

std::vector<const PlanEvent*> AttributionReport::overlapping_faults() const {
  const auto [w_start, w_end] = effective_window();
  std::vector<const PlanEvent*> out;
  for (const PlanEvent& e : faults_) {
    const TimePoint until = e.until > e.at ? e.until : e.at;
    if (e.at <= w_end && until >= w_start) out.push_back(&e);
  }
  return out;
}

std::string AttributionReport::render_json() const {
  const auto [w_start, w_end] = effective_window();
  std::string out = str_format("{\"window_us\":[%lld,%lld]",
                               static_cast<long long>(w_start.us()),
                               static_cast<long long>(w_end.us()));

  out += ",\"violations\":[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    const SloViolation& v = violations_[i];
    if (i > 0) out += ",";
    out += str_format(
        "{\"check\":\"%s\",\"message\":\"%s\",\"at_us\":%lld,"
        "\"trace\":\"0x%016llx\"}",
        json_escape(v.check).c_str(), json_escape(v.message).c_str(),
        static_cast<long long>(v.at.us()),
        static_cast<unsigned long long>(v.trace_id));
  }

  out += "],\"alerts\":[";
  for (size_t i = 0; i < alerts_.size(); ++i) {
    const obs::AlertFiring& f = alerts_[i];
    if (i > 0) out += ",";
    out += str_format("{\"rule\":\"%s\",\"clause\":\"%s\",\"at_us\":%lld}",
                      json_escape(f.rule).c_str(),
                      json_escape(f.clause).c_str(),
                      static_cast<long long>(f.at.us()));
  }

  const std::vector<const PlanEvent*> overlap = overlapping_faults();
  out += "],\"overlapping_faults\":[";
  for (size_t i = 0; i < overlap.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(overlap[i]->describe()) + "\"";
  }

  // Applied faults that missed the window are counted, not listed.
  out += str_format("],\"faults_outside_window\":%zu",
                    faults_.size() - overlap.size());
  out += ",\"scenario_events\":" + render_events_json(scenario_events_);

  out += ",\"hot\":[";
  for (size_t i = 0; i < hot_.size(); ++i) {
    const HotEntry& h = hot_[i];
    if (i > 0) out += ",";
    out += str_format(
        "{\"instance\":\"%s\",\"kind\":\"%s\",\"id\":\"%s\","
        "\"count\":%lld,\"rate_per_sec\":%g}",
        json_escape(h.instance).c_str(), h.is_tenant ? "tenant" : "key",
        json_escape(h.entry.id).c_str(),
        static_cast<long long>(h.entry.count), h.entry.rate_per_sec);
  }

  out += "],\"worst_spans\":[";
  for (size_t i = 0; i < worst_spans_.size(); ++i) {
    const WorstSpan& s = worst_spans_[i];
    if (i > 0) out += ",";
    out += str_format(
        "{\"name\":\"%s\",\"host\":\"%s\",\"status\":\"%s\","
        "\"start_us\":%lld,\"duration_us\":%lld,\"trace\":\"0x%016llx\"}",
        json_escape(s.name).c_str(), json_escape(s.host).c_str(),
        json_escape(s.status).c_str(), static_cast<long long>(s.start.us()),
        static_cast<long long>(s.duration.us()),
        static_cast<unsigned long long>(s.trace_id));
  }
  out += "]}";
  return out;
}

void RunReport::add_violation(std::string check, std::string message) {
  violations_.push_back({std::move(check), std::move(message)});
}

void RunReport::expect(bool ok, std::string check, std::string message) {
  if (!ok) add_violation(std::move(check), std::move(message));
}

void RunReport::set_counter(std::string_view name, int64_t value) {
  counters_.emplace_back(std::string(name), value);
}

void RunReport::set_json(std::string key, std::string json) {
  json_.emplace_back(std::move(key), std::move(json));
}

const std::string& RunReport::json(std::string_view key) const {
  static const std::string kNone;
  for (const auto& [k, json] : json_) {
    if (k == key) return json;
  }
  return kNone;
}

int64_t RunReport::counter(std::string_view name) const {
  for (const auto& [key, value] : counters_) {
    if (key == name) return value;
  }
  return 0;
}

std::string RunReport::describe() const {
  std::string out = "replay: " + replay_ + "\n";
  for (const Violation& v : violations_) {
    out += "  [" + v.check + "] " + v.message + "\n";
  }
  return out;
}

std::string RunReport::render_json() const {
  std::string out = str_format(
      "{\"suite\":\"%s\",\"case\":\"%s\",\"seed\":%llu,"
      "\"trace\":\"0x%016llx\",\"replay\":\"%s\",\"verdict\":\"%s\"",
      json_escape(suite_).c_str(), json_escape(name_).c_str(),
      static_cast<unsigned long long>(seed_),
      static_cast<unsigned long long>(trace_), json_escape(replay_).c_str(),
      passed() ? "pass" : "fail");
  out += ",\"violations\":[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"check\":\"" + json_escape(violations_[i].check) +
           "\",\"message\":\"" + json_escape(violations_[i].message) + "\"}";
  }
  out += "],\"counters\":{";
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (i > 0) out += ",";
    out += str_format("\"%s\":%lld", json_escape(counters_[i].first).c_str(),
                      static_cast<long long>(counters_[i].second));
  }
  out += "}";
  for (const auto& [key, json] : json_) {
    out += ",\"" + json_escape(key) + "\":" + json;
  }
  out += "}";
  return out;
}

void RunReport::print() const {
  std::printf("RUN-REPORT %s\n", render_json().c_str());
  std::fflush(stdout);
}

}  // namespace wiera::sim
