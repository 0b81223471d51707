// The five vcmp_bench workloads. Each drives the library only through its
// public entry points (LoadDataset, MultiProcessingRunner, the tuning
// functions, ConcurrentRunner) and reports what it computed through a
// Probe. README.md explains why each workload exists.
#ifndef VCMP_BENCH_SUITE_WORKLOADS_H_
#define VCMP_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "probe.h"

namespace vcmp {
namespace suite {

/// Everything a workload's inputs are made from.
struct WorkloadInputs {
  /// Seeds the runners (walks, sampled sources) and the query mix.
  uint64_t seed = 1;
  /// Extra down-scaling of the generated graphs (small contract inputs).
  double shrink = 1.0;
  /// Directory for out-of-core spill and state files.
  std::string spill_dir;
};

/// Wall seconds of one set-up, split by layer.
struct SetupTimes {
  double generate_seconds = 0.0;
  double construct_seconds = 0.0;
};

/// Per-layer numbers keyed by metric name.
using MetricMap = std::map<std::string, double>;

class Workload {
 public:
  explicit Workload(WorkloadInputs inputs) : inputs_(std::move(inputs)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Workloads that must compute identical results share a golden.
  virtual std::string golden_key() const = 0;

  /// Generates the dataset and constructs the runner the execution uses
  /// (replacing any earlier set-up); returns the time of each part and
  /// records it as spans when `spans` is set.
  SetupTimes Setup(SpanRecorder* spans);

  /// One execution on the current set-up. `spans` null = untraced;
  /// `verify` adds the reference checks that are too slow to repeat.
  virtual void Execute(SpanRecorder* spans, bool verify) = 0;

  /// Exact text of what the last execution computed.
  virtual std::string Fingerprint() const;

  /// Checks that need a second, independent execution (uncapped or
  /// serial twins, the library's own Tuner). Untimed; reports through
  /// probe().Fail. Call right after a verify execution.
  virtual void VerifyTwin() {}

  /// Wall seconds of one twin execution, spans on `spans` (traced runs
  /// only); 0 when the workload has no twin.
  virtual double TimeTwin(SpanRecorder* /*spans*/) { return 0.0; }

  /// Engine phase times summed over one execution with phase timing on
  /// (traced runs only; the instrumentation inflates them).
  virtual EnginePhaseTimes PhaseTimes();

  /// Adds this workload's own per-layer numbers: `batches` are the
  /// traced execution's records, `wall_seconds` its wall time and
  /// `twin_seconds` the twin's that followed it.
  virtual void AddLayerMetrics(const std::vector<BatchRecord>& /*batches*/,
                               double /*wall_seconds*/,
                               double /*twin_seconds*/,
                               MetricMap* /*metrics*/) const {}

  /// Whether the engine, task and runner layers are read from the twin's
  /// spans and batches because the execution itself hides them
  /// (ConcurrentRunner takes no observers).
  virtual bool LayersFromTwin() const { return false; }

  Probe& probe() { return probe_; }
  const Dataset& dataset() const { return *dataset_; }

 protected:
  /// Graph generation scale of this workload before `shrink`.
  virtual double GraphScale() const = 0;
  /// Constructs the runners over dataset(); `phase_times` turns on the
  /// engine's phase timers.
  virtual void Build(bool phase_times) = 0;

  /// Runner options shared by the workloads: Galaxy-8, the input seed,
  /// engine defaults otherwise, observers wired to the probe.
  RunnerOptions BaseOptions(SystemKind system, bool phase_times);

  /// runner.Run inside a "runner.run" span; failures go to the probe.
  Result<RunReport> RunBatches(MultiProcessingRunner& runner,
                               const MultiTask& task,
                               const BatchSchedule& schedule,
                               SpanRecorder* spans);

  WorkloadInputs inputs_;
  Probe probe_;
  std::unique_ptr<Dataset> dataset_;
};

/// The workload names, in the order the benchmark lists them.
const std::vector<std::string>& WorkloadNames();

/// Creates a workload by name; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadInputs& inputs);

}  // namespace suite
}  // namespace vcmp

#endif  // VCMP_BENCH_SUITE_WORKLOADS_H_
