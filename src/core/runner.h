#ifndef VCMP_CORE_RUNNER_H_
#define VCMP_CORE_RUNNER_H_

#include <functional>
#include <memory>
#include <optional>

#include "common/result.h"
#include "core/batch_schedule.h"
#include "engine/sync_engine.h"
#include "engine/system_profile.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "metrics/run_report.h"
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"
#include "tasks/task.h"

namespace vcmp {

class ThreadPool;
class Tracer;

/// Configuration of a multi-processing run.
struct RunnerOptions {
  ClusterSpec cluster = ClusterSpec::Galaxy8();
  SystemKind system = SystemKind::kPregelPlus;
  CostParams cost;
  uint64_t seed = 1;
  /// Query namespace of this run inside a concurrent multi-query batch
  /// (ConcurrentRunner numbers queries 0..K-1). Every per-batch program
  /// seed and per-vertex engine reseed mixes the query id in, so queries
  /// sharing a base seed still draw decorrelated streams. Query 0
  /// reproduces the historical single-query behavior bit for bit.
  uint64_t query_id = 0;
  /// Shared compute pool for the engine's parallel sections. Null (the
  /// default) keeps the historical behavior — each engine run makes a
  /// private pool sized by execution_threads; non-null shares one pool's
  /// workers across concurrent queries.
  ThreadPool* pool = nullptr;
  /// Partition to run over, computed once by the caller and shared across
  /// queries (it depends only on graph + profile + cluster, not on the
  /// query). Must match this runner's profile partitioner and outlive the
  /// runner. Null = partition in the constructor (historical behavior).
  const Partitioning* shared_partition = nullptr;
  uint64_t max_rounds = 4096;
  /// Compute/delivery threads per engine run (results are thread-count
  /// invariant; see EngineOptions::execution_threads). 0 = auto: one
  /// thread per hardware core. The engine caps the count at the hardware
  /// concurrency.
  uint32_t execution_threads = 0;
  /// Pregel checkpointing every N rounds (0 = off); applied per batch.
  uint64_t checkpoint_interval_rounds = 0;
  /// Collect real per-phase engine times (see EngineOptions).
  bool collect_phase_times = false;
  /// Replaces the canonical profile for `system` (ablation studies; e.g.
  /// a Pregel+ run with a combiner sets `combines_messages`).
  std::optional<SystemProfile> profile_override;
  /// Real out-of-core execution (src/ooc): when ooc.enabled, every batch
  /// runs under the hard per-machine memory budget with real spill files
  /// and a bounded vertex cache, and the report carries measured spilled
  /// bytes. Requires an out-of-core system profile (GraphD).
  OocOptions ooc;
  /// Called with each batch's finished program (result aggregation).
  std::function<void(const VertexProgram&)> batch_observer;
  /// Called with each batch's raw EngineResult (phase times, round trace)
  /// before it is folded into the RunReport.
  std::function<void(const EngineResult&)> engine_observer;
  /// Residual memory already resident on each machine before batch 1
  /// (paper-scale bytes). The serving layer seeds this with the unflushed
  /// residuals of other in-flight jobs so their footprint counts toward
  /// overload exactly like the run's own carryover. Empty = zero.
  std::vector<double> initial_residual_bytes;
  /// Called after every batch with the accumulated per-machine residual
  /// (paper-scale bytes, including initial_residual_bytes) — the
  /// mid-workload observation point the online batcher inverts the
  /// memory models against.
  std::function<void(uint64_t batch_index,
                     const std::vector<double>& residual_bytes)>
      residual_observer;
  /// --- Observability (src/obs) ---
  /// When set, the runner registers two tracks under the `trace_label`
  /// process — "batches" (one span per executed batch, plus a
  /// carryover-residual gauge after each) and "engine" (the per-round
  /// spans, batches lined up end to end on one simulated timeline) —
  /// and accumulates flat counters (runner.batches, runner.seconds,
  /// engine.*) that reconcile exactly with the RunReport. Null = off.
  Tracer* tracer = nullptr;
  /// Trace "process" name grouping this run's tracks (suite drivers set
  /// it to the experiment name so runs stay distinguishable).
  std::string trace_label = "run";
};

/// Executes a multi-processing task under a batch schedule: batches run
/// sequentially on the chosen VC-system, residual memory accumulates
/// across batches (Section 5 "the intermediate results of the i-th batch
/// have to be stored for final result aggregation"), and the report
/// aggregates the paper's monitored statistics.
class MultiProcessingRunner {
 public:
  /// `dataset` must outlive the runner.
  MultiProcessingRunner(const Dataset& dataset, RunnerOptions options);

  MultiProcessingRunner(const MultiProcessingRunner&) = delete;
  MultiProcessingRunner& operator=(const MultiProcessingRunner&) = delete;

  /// Runs all batches. A batch that overloads marks the run overloaded and
  /// stops execution (the paper bills such runs at the 6000 s cut-off).
  /// Zero-workload batches are skipped.
  Result<RunReport> Run(const MultiTask& task, const BatchSchedule& schedule);

  const SystemProfile& profile() const { return profile_; }
  const Partitioning& partition() const { return *partition_; }

 private:
  const Dataset& dataset_;
  RunnerOptions options_;
  SystemProfile profile_;
  /// Owned partition when options_.shared_partition is null; unused
  /// otherwise (partition_ then aliases the caller's).
  Partitioning owned_partition_;
  const Partitioning* partition_;
};

}  // namespace vcmp

#endif  // VCMP_CORE_RUNNER_H_
