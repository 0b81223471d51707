// perf_engine: the standing engine-performance benchmark. Runs the
// multi-batch B-PPR + MSSP workload on the LiveJournal stand-in and
// reports real wall-clock per engine phase (compute, group, stage,
// deliver), writing the numbers to a JSON file so successive engine
// changes can be compared run-over-run:
//
//   perf_engine                      # sweep 1,2,4 + headline 8 threads
//   perf_engine --threads=1 --json=/tmp/t1.json
//   perf_engine --threads-sweep=1,2,8   # per-thread-count blocks in JSON
//
// When the sweep covers both 1 and 8 threads (the default), the JSON
// gains top-level wall_ms_1t / wall_ms_8t / speedup_8t fields — the
// scaling headline CI's bench-smoke job gates on.
//
// The simulated seconds printed at the end are thread-count invariant
// (the engine's determinism contract); the benchmark verifies this across
// the sweep and fails if any thread count disagrees. Only the wall-clock
// changes with --threads. Total workload: 3 reps x (B-PPR W=4096 in 4
// batches + MSSP W=2048 in 4 batches) on Galaxy8 under Pregel+, seed 11.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/wall_clock.h"
#include "core/runner.h"
#include "graph/datasets.h"
#include "metrics/export.h"
#include "tasks/task_registry.h"

namespace vcmp {
namespace {

struct Measurement {
  uint32_t threads = 0;            // Requested configuration.
  uint32_t effective_threads = 0;  // After the (optional) hardware clamp.
  double wall_ms = 0.0;
  EnginePhaseTimes phase;
  double sim_seconds = 0.0;

  double MessagePathMs() const {
    return 1e3 * (phase.group_seconds + phase.stage_seconds +
                  phase.deliver_seconds);
  }
};

/// Runs the whole workload at one thread count. With `timed` the engine
/// collects its per-phase breakdown (clock reads per round, machine and
/// sender-destination pair, never per message), so the headline wall
/// time comes from a separate untimed pass.
Measurement MeasureThreads(const Dataset& dataset, int reps,
                           uint32_t threads, bool clamp_to_hardware) {
  Measurement out;
  out.threads = threads;
  out.effective_threads = ThreadPool::ResolveThreads(threads,
                                                     clamp_to_hardware);
  auto run_workload = [&](bool timed) -> double {
    RunnerOptions options;
    options.cluster = ClusterSpec::Galaxy8();
    options.system = SystemKind::kPregelPlus;
    options.seed = 11;
    options.execution_threads = threads;
    options.clamp_threads_to_hardware = clamp_to_hardware;
    options.collect_phase_times = timed;
    options.engine_observer = [&out, timed](const EngineResult& result) {
      if (!timed) return;
      out.phase.compute_seconds += result.phase.compute_seconds;
      out.phase.group_seconds += result.phase.group_seconds;
      out.phase.stage_seconds += result.phase.stage_seconds;
      out.phase.deliver_seconds += result.phase.deliver_seconds;
    };
    MultiProcessingRunner runner(dataset, options);
    out.sim_seconds = 0.0;
    const uint64_t start_ns = wallclock::NowNs();
    for (int rep = 0; rep < reps; ++rep) {
      auto bppr = MakeTask("BPPR");
      auto r1 = runner.Run(*bppr.value(), BatchSchedule::Equal(4096, 4));
      if (!r1.ok()) {
        std::cerr << r1.status().ToString() << "\n";
        std::exit(1);
      }
      out.sim_seconds += r1.value().total_seconds;
      auto mssp = MakeTask("MSSP");
      auto r2 = runner.Run(*mssp.value(), BatchSchedule::Equal(2048, 4));
      if (!r2.ok()) {
        std::cerr << r2.status().ToString() << "\n";
        std::exit(1);
      }
      out.sim_seconds += r2.value().total_seconds;
    }
    return wallclock::SecondsSince(start_ns) * 1e3;
  };
  out.wall_ms = run_workload(/*timed=*/false);
  run_workload(/*timed=*/true);  // Phase breakdown (instrumented).
  return out;
}

void PrintMeasurement(const Measurement& m) {
  std::printf(
      "threads %u (effective %u)  wall %.1fms  (compute %.1fms, "
      "group %.1fms, stage %.1fms, deliver %.1fms)\n",
      m.threads, m.effective_threads, m.wall_ms,
      1e3 * m.phase.compute_seconds,
      1e3 * m.phase.group_seconds, 1e3 * m.phase.stage_seconds,
      1e3 * m.phase.deliver_seconds);
}

/// Serialises one measurement as a nested JSON object (no schema stamp).
std::string MeasurementJson(const Measurement& m) {
  JsonWriter json(/*with_schema_version=*/false);
  json.Field("threads", static_cast<uint64_t>(m.threads));
  json.Field("effective_threads", static_cast<uint64_t>(m.effective_threads));
  json.Field("wall_ms", m.wall_ms);
  json.Field("compute_ms", 1e3 * m.phase.compute_seconds);
  json.Field("group_ms", 1e3 * m.phase.group_seconds);
  json.Field("stage_ms", 1e3 * m.phase.stage_seconds);
  json.Field("deliver_ms", 1e3 * m.phase.deliver_seconds);
  json.Field("message_path_ms", m.MessagePathMs());
  return json.Close();
}

std::vector<uint32_t> ParseSweep(const std::string& sweep) {
  std::vector<uint32_t> counts;
  std::stringstream in(sweep);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    counts.push_back(static_cast<uint32_t>(std::stoul(item)));
  }
  return counts;
}

int Main(int argc, char** argv) {
  FlagParser flags("perf_engine",
                   "engine hot-path benchmark (multi-batch BPPR + MSSP)");
  flags.Define("threads", "8", "headline engine execution threads");
  flags.Define("reps", "3", "workload repetitions");
  flags.Define("threads-sweep", "1,2,4",
               "comma-separated extra thread counts to measure; each gets a"
               " block in the JSON sweep array (the headline count is always"
               " appended). Empty = headline only.");
  flags.Define("json", "BENCH_engine.json",
               "write phase timings to this path (empty = skip)");
  flags.Define("clamp-to-hardware", "false",
               "silently cap thread counts at the hardware concurrency "
               "(the engine's default). Off here: a scaling benchmark must"
               " measure the configuration it claims to, so on a small box"
               " the 8-thread point oversubscribes rather than silently"
               " re-measuring 1 thread. The JSON records hardware_threads"
               " and each point's effective_threads either way.");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }

  Dataset dataset = LoadDataset(DatasetId::kLiveJournal, 256.0);
  std::printf("dataset: %s stand-in %s (scale %.0f)\n", dataset.info.name,
              dataset.graph.ToString().c_str(), dataset.scale);

  const int reps = static_cast<int>(flags.GetInt("reps"));
  const uint32_t headline_threads =
      static_cast<uint32_t>(flags.GetInt("threads"));

  // The sweep always includes the headline count (measured exactly once).
  std::vector<uint32_t> sweep = ParseSweep(flags.GetString("threads-sweep"));
  bool headline_in_sweep = false;
  for (uint32_t t : sweep) headline_in_sweep |= (t == headline_threads);
  if (!headline_in_sweep) sweep.push_back(headline_threads);

  const bool clamp = flags.GetBool("clamp-to-hardware");
  const uint32_t hardware = ThreadPool::HardwareThreads();
  if (!clamp) {
    for (uint32_t t : sweep) {
      if (t > hardware) {
        std::printf(
            "note: %u threads oversubscribe this machine (%u hardware); "
            "measuring the requested configuration anyway\n",
            t, hardware);
      }
    }
  }

  std::vector<Measurement> measurements;
  for (uint32_t threads : sweep) {
    measurements.push_back(MeasureThreads(dataset, reps, threads, clamp));
    PrintMeasurement(measurements.back());
  }
  const Measurement* headline = &measurements.front();
  for (const Measurement& m : measurements) {
    if (m.threads == headline_threads) headline = &m;
  }

  // Determinism contract: the simulated schedule must be bit-identical
  // for every thread count (DESIGN.md section 7).
  for (const Measurement& m : measurements) {
    if (m.sim_seconds != headline->sim_seconds) {
      std::fprintf(stderr,
                   "FAIL: simulated seconds differ across thread counts "
                   "(%u threads: %.6f vs %u threads: %.6f)\n",
                   m.threads, m.sim_seconds, headline->threads,
                   headline->sim_seconds);
      return 1;
    }
  }
  std::printf("simulated seconds %.3f (thread-count invariant)\n",
              headline->sim_seconds);

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    JsonWriter json;
    json.Field("workload",
               "3x (BPPR W=4096 4-batch + MSSP W=2048 4-batch), "
               "LiveJournal scale 256, Galaxy8, Pregel+");
    json.Field("seed", static_cast<uint64_t>(11));
    json.Field("threads", static_cast<uint64_t>(headline->threads));
    json.Field("effective_threads",
               static_cast<uint64_t>(headline->effective_threads));
    json.Field("hardware_threads", static_cast<uint64_t>(hardware));
    json.Field("clamped_to_hardware", clamp);
    json.Field("wall_ms", headline->wall_ms);
    json.Field("compute_ms", 1e3 * headline->phase.compute_seconds);
    json.Field("group_ms", 1e3 * headline->phase.group_seconds);
    json.Field("stage_ms", 1e3 * headline->phase.stage_seconds);
    json.Field("deliver_ms", 1e3 * headline->phase.deliver_seconds);
    json.Field("message_path_ms", headline->MessagePathMs());
    json.Field("simulated_seconds", headline->sim_seconds);
    // Scaling headline: single-thread vs eight-thread wall-clock from the
    // same sweep. CI's bench-smoke job gates on speedup_8t, so these stay
    // top-level scalars rather than buried in the sweep array.
    const Measurement* one_thread = nullptr;
    const Measurement* eight_threads = nullptr;
    for (const Measurement& m : measurements) {
      if (m.threads == 1) one_thread = &m;
      if (m.threads == 8) eight_threads = &m;
    }
    if (one_thread != nullptr && eight_threads != nullptr &&
        eight_threads->wall_ms > 0.0) {
      json.Field("wall_ms_1t", one_thread->wall_ms);
      json.Field("wall_ms_8t", eight_threads->wall_ms);
      json.Field("speedup_8t", one_thread->wall_ms / eight_threads->wall_ms);
      // Per-phase scaling, same two points: where the round's wall time
      // actually goes as threads grow (a flat wall with a rising
      // compute speedup means the message path is the new bottleneck).
      auto speedup = [](double one, double eight) {
        return eight > 0.0 ? one / eight : 0.0;
      };
      json.Field("compute_speedup_8t",
                 speedup(1e3 * one_thread->phase.compute_seconds,
                         1e3 * eight_threads->phase.compute_seconds));
      json.Field("group_speedup_8t",
                 speedup(1e3 * one_thread->phase.group_seconds,
                         1e3 * eight_threads->phase.group_seconds));
      json.Field("stage_speedup_8t",
                 speedup(1e3 * one_thread->phase.stage_seconds,
                         1e3 * eight_threads->phase.stage_seconds));
      json.Field("deliver_speedup_8t",
                 speedup(1e3 * one_thread->phase.deliver_seconds,
                         1e3 * eight_threads->phase.deliver_seconds));
      json.Field("message_path_speedup_8t",
                 speedup(one_thread->MessagePathMs(),
                         eight_threads->MessagePathMs()));
    }
    std::string sweep_json = "[";
    for (size_t i = 0; i < measurements.size(); ++i) {
      if (i > 0) sweep_json += ", ";
      sweep_json += MeasurementJson(measurements[i]);
    }
    sweep_json += "]";
    json.RawField("sweep", sweep_json);
    // Historical reference points, emitted verbatim so regenerating the
    // checked-in BENCH_engine.json keeps the comparison anchors. The
    // pre-overhaul engine is the older AoS hot path (message vectors, no
    // frontier, virtual per-message Compute); the seed baseline predates
    // even that (per-round thread spawn, std::sort grouping).
    json.RawField(
        "pre_overhaul",
        "{\"note\": \"same workload on the pre-overhaul engine (AoS "
        "std::vector<Message> buffers, no active-vertex frontier, virtual "
        "per-message Compute dispatch, conditional-binomial walk splits)\", "
        "\"wall_ms\": 1814.6, \"compute_ms\": 2972.1, \"group_ms\": 258.7, "
        "\"stage_ms\": 648.2, \"deliver_ms\": 74.1, "
        "\"simulated_seconds\": 41941.452}");
    json.RawField(
        "seed_baseline",
        "{\"note\": \"same workload on the pre-PR4 engine (per-round thread "
        "spawn, std::sort grouping, unordered_map combiner index); phase "
        "breakdown unavailable there\", \"wall_ms_8_threads\": 2947.0, "
        "\"wall_ms_1_thread\": 2643.0, \"speedup_8_threads\": 1.62}");
    Status written = WriteTextFile(json.Close(), json_path);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vcmp

int main(int argc, char** argv) { return vcmp::Main(argc, argv); }
