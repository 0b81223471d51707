#include "obs/run_trace.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace vcmp {
namespace {

/// One batch's rounds on the engine track, from `start` on.
void TraceRounds(Tracer& tracer, uint32_t track, double start,
                 const BatchReport& batch) {
  double elapsed = 0.0;  // The engine's running sum of round seconds.
  for (const RoundStats& stats : batch.round_stats) {
    // The round partitions: the machines work (compute with network/disk
    // stalls overlapped), then the barrier, then any checkpoint flush and
    // failure recovery. Round starts are monotone by FP-addition
    // monotonicity; the child chain is clamped into [t0, t_end] so
    // nesting survives the last ulp of rounding. Per-phase maxima that
    // do not form a timeline (they come from different machines) travel
    // as span args.
    const double t0 = start + elapsed;
    const double t_end = start + (elapsed + stats.total_seconds);
    const double work = stats.total_seconds - stats.barrier_seconds -
                        stats.checkpoint_seconds - stats.recovery_seconds;
    tracer.Begin(track, "round", t0,
                 {{"round", static_cast<double>(stats.round)},
                  {"messages", stats.messages},
                  {"message_bytes", stats.message_bytes},
                  {"cross_machine_bytes", stats.cross_machine_bytes},
                  {"active_vertices", stats.active_vertices}});
    double t = t0;
    auto child = [&](const char* name, double duration,
                     std::vector<TraceArg> args = {}) {
      tracer.Begin(track, name, t, std::move(args));
      t = std::min(t + duration, t_end);
      tracer.End(track, t);
    };
    child("compute", work,
          {{"max_compute_seconds", stats.compute_seconds},
           {"network_stall_seconds", stats.network_seconds},
           {"disk_stall_seconds", stats.disk_stall_seconds},
           {"thrash_multiplier", stats.thrash_multiplier}});
    child("barrier", stats.barrier_seconds);
    if (stats.checkpoint_seconds > 0.0) {
      child("checkpoint", stats.checkpoint_seconds);
    }
    if (stats.recovery_seconds > 0.0) {
      child("recovery", stats.recovery_seconds);
    }
    if (batch.ooc_active && stats.spilled_bytes > 0.0) {
      // A marker carrying the measured spill traffic. Its I/O time is
      // already part of the compute child's disk stalls, so it adds no
      // duration of its own.
      child("ooc_spill", 0.0, {{"spilled_bytes", stats.spilled_bytes}});
    }
    tracer.End(track, t_end);
    tracer.Gauge(track, "memory_bytes", t_end, stats.max_memory_bytes);
    tracer.Gauge(track, "residual_bytes", t_end, stats.max_residual_bytes);
    if (batch.ooc_active) {
      tracer.Gauge(track, "ooc_spilled_bytes", t_end, stats.spilled_bytes);
    }
    elapsed += stats.total_seconds;
  }
}

}  // namespace

void TraceRunReport(Tracer& tracer, const std::string& label,
                    const RunReport& report) {
  const uint32_t batch_track = tracer.AddTrack(label, "batches");
  const uint32_t engine_track = tracer.AddTrack(label, "engine");
  if (report.batches.empty()) return;

  // Counter sums, batch by batch in the order RunReport::Absorb sums;
  // per-batch totals first where the engine sums over rounds.
  double elapsed = 0.0;  // total_seconds before any overload clamp.
  double engine_seconds = 0.0;
  double messages = 0.0;
  double rounds = 0.0;
  double checkpoint_seconds = 0.0;
  double checkpoints = 0.0;
  double peak_memory_bytes = 0.0;
  double peak_residual_bytes = 0.0;
  double peak_buffered_bytes = 0.0;
  std::optional<uint64_t> mirrors;
  bool ooc_active = false;
  double ooc_spilled_bytes = 0.0;
  OocRunStats ooc;
  for (size_t i = 0; i < report.batches.size(); ++i) {
    const BatchReport& batch = report.batches[i];
    const double start = elapsed;
    TraceRounds(tracer, engine_track, start, batch);
    elapsed += batch.seconds;
    tracer.Begin(batch_track, "batch", start,
                 {{"batch", static_cast<double>(batch.index)},
                  {"workload", batch.workload},
                  {"rounds", static_cast<double>(batch.rounds)},
                  {"messages", batch.messages},
                  {"peak_memory_bytes", batch.peak_memory_bytes}});
    tracer.End(batch_track, elapsed);
    // An overloaded batch is the run's last: nothing carries past it.
    const bool stopped_run =
        report.overloaded && i + 1 == report.batches.size();
    if (!stopped_run) {
      tracer.Gauge(batch_track, "carryover_residual_bytes", elapsed,
                   batch.carryover_residual_bytes);
    }

    engine_seconds += batch.engine_seconds;
    messages += batch.messages;
    rounds += static_cast<double>(batch.rounds);
    double batch_checkpoint_seconds = 0.0;
    for (const RoundStats& stats : batch.round_stats) {
      batch_checkpoint_seconds += stats.checkpoint_seconds;
      if (stats.checkpoint_seconds > 0.0) checkpoints += 1.0;
    }
    checkpoint_seconds += batch_checkpoint_seconds;
    peak_memory_bytes = std::max(peak_memory_bytes, batch.peak_memory_bytes);
    peak_residual_bytes =
        std::max(peak_residual_bytes, batch.peak_residual_bytes);
    peak_buffered_bytes =
        std::max(peak_buffered_bytes, batch.peak_buffered_bytes);
    if (batch.mirrors.has_value()) {
      mirrors = std::max(mirrors.value_or(0), *batch.mirrors);
    }
    if (batch.ooc_active) {
      ooc_active = true;
      ooc_spilled_bytes += batch.spilled_bytes;
      ooc.Accumulate(batch.ooc);
    }
  }

  tracer.Add("runner.batches", static_cast<double>(report.batches.size()));
  tracer.Add("runner.seconds", elapsed);
  tracer.Add("runner.messages", messages);
  tracer.Add("runner.rounds", rounds);
  tracer.Add("engine.messages", messages);
  tracer.Add("engine.rounds", rounds);
  tracer.Add("engine.seconds", engine_seconds);
  tracer.Add("engine.checkpoint_seconds", checkpoint_seconds);
  tracer.Add("engine.checkpoints", checkpoints);
  tracer.Peak("engine.peak_memory_bytes", peak_memory_bytes);
  tracer.Peak("engine.peak_residual_bytes", peak_residual_bytes);
  tracer.Peak("engine.peak_buffered_bytes", peak_buffered_bytes);
  if (mirrors.has_value()) {
    tracer.Peak("engine.mirrors", static_cast<double>(*mirrors));
  }
  if (ooc_active) {
    tracer.Add("engine.ooc.spilled_bytes", ooc_spilled_bytes);
    tracer.Add("engine.ooc.spill_bytes_written", ooc.spill_bytes_written);
    tracer.Add("engine.ooc.spill_bytes_read", ooc.spill_bytes_read);
    tracer.Add("engine.ooc.state_bytes_read", ooc.state_bytes_read);
    tracer.Add("engine.ooc.cache_hits", static_cast<double>(ooc.cache_hits));
    tracer.Add("engine.ooc.cache_misses",
               static_cast<double>(ooc.cache_misses));
    tracer.Peak("engine.ooc.peak_live_bytes", ooc.peak_live_bytes);
  }
}

}  // namespace vcmp
