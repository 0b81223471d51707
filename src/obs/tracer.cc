#include "obs/tracer.h"

#include <algorithm>

#include "common/logging.h"

namespace vcmp {

uint32_t Tracer::AddTrack(std::string process, std::string thread) {
  tracks_.push_back({std::move(process), std::move(thread)});
  open_depth_.push_back(0);
  return static_cast<uint32_t>(tracks_.size() - 1);
}

void Tracer::Begin(uint32_t track, std::string name, double ts_seconds,
                   std::vector<TraceArg> args) {
  VCMP_CHECK(track < tracks_.size()) << "Begin on unregistered track";
  ++open_depth_[track];
  TraceEvent event;
  event.kind = TraceEvent::Kind::kBegin;
  event.track = track;
  event.ts_seconds = ts_seconds;
  event.name = std::move(name);
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void Tracer::End(uint32_t track, double ts_seconds,
                 std::vector<TraceArg> args) {
  VCMP_CHECK(track < tracks_.size()) << "End on unregistered track";
  VCMP_CHECK(open_depth_[track] > 0)
      << "End with no open span on track '" << tracks_[track].thread << "'";
  --open_depth_[track];
  TraceEvent event;
  event.kind = TraceEvent::Kind::kEnd;
  event.track = track;
  event.ts_seconds = ts_seconds;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void Tracer::Instant(uint32_t track, std::string name, double ts_seconds,
                     std::vector<TraceArg> args) {
  VCMP_CHECK(track < tracks_.size()) << "Instant on unregistered track";
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.track = track;
  event.ts_seconds = ts_seconds;
  event.name = std::move(name);
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void Tracer::Gauge(uint32_t track, std::string name, double ts_seconds,
                   double value) {
  VCMP_CHECK(track < tracks_.size()) << "Gauge on unregistered track";
  TraceEvent event;
  event.kind = TraceEvent::Kind::kGauge;
  event.track = track;
  event.ts_seconds = ts_seconds;
  event.name = std::move(name);
  event.value = value;
  events_.push_back(std::move(event));
}

void Tracer::Add(const std::string& counter, double delta) {
  auto [it, inserted] = counter_is_peak_.emplace(counter, false);
  VCMP_CHECK(!it->second)
      << "counter '" << counter << "' mixes Add and Peak";
  counters_[counter] += delta;
}

void Tracer::Peak(const std::string& counter, double value) {
  auto [it, inserted] = counter_is_peak_.emplace(counter, true);
  VCMP_CHECK(it->second)
      << "counter '" << counter << "' mixes Add and Peak";
  double& slot = counters_[counter];
  slot = std::max(slot, value);
}

double Tracer::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

uint32_t Tracer::open_spans(uint32_t track) const {
  VCMP_CHECK(track < tracks_.size());
  return open_depth_[track];
}

}  // namespace vcmp
