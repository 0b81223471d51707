#ifndef VCMP_OBS_TRACER_H_
#define VCMP_OBS_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vcmp {

/// One key/value annotation on a trace event. Values are numeric only:
/// every annotation is a statistic, and an all-double payload keeps
/// recording allocation-light and the export byte-stable.
using TraceArg = std::pair<std::string, double>;

/// One recorded event. Timestamps are SIMULATED seconds (engine round
/// time, runner batch time, service clock) — never wall time — so a
/// trace's bytes are a pure function of the run's inputs: the same spec
/// produces the same trace on any machine at any thread count.
struct TraceEvent {
  enum class Kind : uint8_t {
    kBegin,    // Opens a span on a track (nestable).
    kEnd,      // Closes the innermost open span on the track.
    kInstant,  // A point event.
    kGauge,    // A sampled value (exported as a Chrome counter event).
  };

  Kind kind = Kind::kInstant;
  uint32_t track = 0;
  double ts_seconds = 0.0;
  std::string name;   // Empty for kEnd.
  double value = 0.0;  // kGauge only.
  std::vector<TraceArg> args;
};

/// A timeline the events land on; exported as one Chrome trace thread.
/// Tracks sharing a `process` name render grouped in Perfetto.
struct TraceTrack {
  std::string process;
  std::string thread;
};

/// The deterministic trace recorder.
///
/// Usage contract:
///  - Runs are drawn after the fact from their reports
///    (obs/run_trace.h). The serving loop, whose lifecycle events no
///    report keeps, records while it runs through a `Tracer*` that is
///    null when tracing is off.
///  - Spans nest per track: End() closes the innermost Begin() on that
///    track, and it is a checked error to End() with no span open.
///  - Timestamps must come from a simulated clock. The recorder does not
///    read wall time, ever.
///
/// Besides the event stream, the tracer keeps a flat counter map —
/// Add() accumulates, Peak() keeps a running max — which the test suite
/// reconciles exactly (bitwise, not approximately) against RunReport and
/// ServiceReport aggregates. Emitters therefore mirror the reports' own
/// accumulation order.
class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a timeline. Ids are dense and assigned in call order, so
  /// registration order must itself be deterministic.
  uint32_t AddTrack(std::string process, std::string thread);

  void Begin(uint32_t track, std::string name, double ts_seconds,
             std::vector<TraceArg> args = {});
  void End(uint32_t track, double ts_seconds,
           std::vector<TraceArg> args = {});
  void Instant(uint32_t track, std::string name, double ts_seconds,
               std::vector<TraceArg> args = {});
  void Gauge(uint32_t track, std::string name, double ts_seconds,
             double value);

  /// Flat counters (no timestamp): Add accumulates a running sum, Peak a
  /// running max. Keys are exported sorted. Mixing Add and Peak on one
  /// key is a checked error.
  void Add(const std::string& counter, double delta);
  void Peak(const std::string& counter, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceTrack>& tracks() const { return tracks_; }
  const std::map<std::string, double>& counters() const {
    return counters_;
  }
  /// Value of one flat counter (0.0 when never touched).
  double counter(const std::string& name) const;

  /// Open (begun, not yet ended) spans on `track`; 0 for a balanced
  /// trace. The invariant tests assert this is 0 on every track after a
  /// run.
  uint32_t open_spans(uint32_t track) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<TraceTrack> tracks_;
  std::vector<uint32_t> open_depth_;  // Parallel to tracks_.
  std::map<std::string, double> counters_;
  /// Whether each counter key is a Peak (true) or an Add (false) one.
  std::map<std::string, bool> counter_is_peak_;
};

}  // namespace vcmp

#endif  // VCMP_OBS_TRACER_H_
