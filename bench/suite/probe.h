// Bench-side instrumentation for vcmp_bench: in-memory wall-clock spans
// around calls into each layer, the runner observers that collect one
// record per executed batch, and the answer checks made on each batch.
// Nothing here reaches into the library; every hook is a public one
// (RunnerOptions observers, the MultiTask interface).
#ifndef VCMP_BENCH_SUITE_PROBE_H_
#define VCMP_BENCH_SUITE_PROBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "engine/sync_engine.h"
#include "graph/datasets.h"
#include "tasks/task.h"

namespace vcmp {
namespace suite {

/// One wall-clock span. `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Spans kept in memory and written out once the run ends. Spans nest
/// strictly: End closes the innermost open span, so the recording is
/// balanced by construction (Balanced() reports a violation).
class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open one; returns its id.
  int Begin(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  bool Balanced() const { return balanced_ && open_.empty(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total seconds of spans whose name starts with `prefix`.
  double Sum(const std::string& prefix) const;
  /// Total seconds of the direct children of span `id`.
  double ChildSum(int id) const;

  /// Appends this recording as Chrome trace events ("B"/"E" pairs in
  /// nesting order) on thread `tid`, timestamps relative to `origin_ns`.
  void AppendChromeEvents(uint64_t origin_ns, uint32_t tid,
                          std::vector<std::string>* events) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool balanced_ = true;
};

/// What the benchmark records about one executed batch. Everything but
/// `phase` is deterministic for a given seed and input.
struct BatchRecord {
  std::string task;
  double sim_seconds = 0.0;
  uint64_t rounds = 0;
  double logical_messages = 0.0;
  double wire_messages = 0.0;
  double peak_memory_bytes = 0.0;
  bool overloaded = false;
  /// Hash of the batch's answer (BPPR stop counts, MSSP distances, BKHS
  /// neighbourhood sizes).
  uint64_t answer_digest = 0;
  OocRunStats ooc;
  EnginePhaseTimes phase;
};

/// Collects batch records, failed checks and (when a recorder is set)
/// spans for one execution of a workload. Runners are wired to a probe
/// through Attach; tasks through TimedTask.
class Probe {
 public:
  /// `dataset` is the graph the checks run their references on.
  void set_dataset(const Dataset* dataset) { dataset_ = dataset; }

  /// Starts a new execution: clears records and failures. `spans` may be
  /// null (untraced); `verify` turns on the reference checks that are
  /// too slow for every timed execution.
  void Begin(SpanRecorder* spans, bool verify);
  /// Closes spans the runner left open (the last batch's).
  void Finish();

  const std::vector<BatchRecord>& batches() const { return batches_; }
  const std::vector<std::string>& failures() const { return failures_; }
  void Fail(const std::string& what) { failures_.push_back(what); }

  /// Installs this probe's engine and batch observers on `options`.
  void Attach(RunnerOptions* options);

  // Hooks (called by TimedTask and the runner observers).
  void OnMakeProgramBegin();
  void OnMakeProgramEnd(const std::string& task);
  void OnEngineResult(const EngineResult& result);
  void OnBatchProgram(const VertexProgram& program);

 private:
  void CheckBppr(const VertexProgram& program, BatchRecord* record);
  void CheckMssp(const VertexProgram& program, BatchRecord* record);
  void CheckBkhs(const VertexProgram& program, BatchRecord* record);

  const Dataset* dataset_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  bool verify_ = false;
  int make_span_ = -1;
  int engine_span_ = -1;
  std::string current_task_;
  std::vector<BatchRecord> batches_;
  std::vector<std::string> failures_;
};

/// Decorates a task so each MakeProgram call is reported to the probe:
/// the span from its return to the engine observer is the batch's
/// engine time.
class TimedTask : public MultiTask {
 public:
  TimedTask(std::unique_ptr<MultiTask> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  double MinBatchWorkload() const override {
    return inner_->MinBatchWorkload();
  }
  Result<std::unique_ptr<VertexProgram>> MakeProgram(
      const TaskContext& context, ProgramFlavor flavor, double workload,
      uint64_t seed) const override;

 private:
  std::unique_ptr<MultiTask> inner_;
  Probe* probe_;
};

/// Makes a registry task wrapped in TimedTask; aborts on an unknown name
/// (task names are fixed in the benchmark, not user input).
std::unique_ptr<MultiTask> MakeTimedTask(const std::string& name,
                                         Probe* probe);

/// Opens a span on `spans` for the lifetime of the object (no-op when
/// `spans` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const std::string& name)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* spans_;
  int id_;
};

/// Hop distances from `source` along out-edges, up to `max_depth` hops;
/// vertices farther away read MsspProgram::kUnreached.
std::vector<uint32_t> BfsDistances(const Graph& graph, VertexId source,
                                   uint32_t max_depth = ~0u);

}  // namespace suite
}  // namespace vcmp

#endif  // VCMP_BENCH_SUITE_PROBE_H_
